#ifndef FLEET_RTL_JIT_H
#define FLEET_RTL_JIT_H

/**
 * @file
 * Native compilation of a TapeProgram (ISSUE 9): instead of walking the
 * 32-byte micro-ops every cycle, render the whole tape as straight-line
 * C — one fused lane loop per chunk of ops in the batch engine's
 * structure-of-arrays layout, with the lane count and every constant
 * slot baked in as compile-time literals — compile it with the host
 * toolchain, dlopen() the shared object, and evaluate the PU population
 * by calling the two generated entry points:
 *
 *     fleet_jit_eval(slots, lane_lo, lane_hi)   // comb evaluation
 *     fleet_jit_step(slots, regs, brams, lo, hi) // clock edge
 *
 * Why this wins over the interpreter: the SoA sweep is memory-bound and
 * dispatch-bound — every op re-loads its operands from the slot array
 * and re-enters the opcode switch. The generated code keeps each op's
 * result in a local for its in-chunk consumers (operand loads largely
 * vanish), the per-op lane loops fuse into a handful of long loops the
 * host compiler vectorizes with the lane count known statically, and
 * there is no dispatch at all.
 *
 * Determinism contract: the emitted expressions replicate
 * evalTapeOps()'s masking, shift guards, sign-extension rebasing and
 * read-first BRAM step ordering exactly, per lane, so a JIT-backed
 * batch is bit-identical to BatchSimulator's interpreter on every
 * exactly-observed value: output-port nodes, registers (regValue),
 * BRAM words (bramWord), and therefore RunReports and traces —
 * enforced by tests/rtl_jit_test.cc and the random-program property
 * suite. Interior (non-output) node values are not materialized unless
 * the clock edge or a later chunk reads them — value() on such a node
 * may return a stale result, the same observability weakening
 * TapeProgram::fits32 already applies to wide interior nodes.
 *
 * Artifacts are cached on disk keyed by cacheKey() (tape content hash +
 * lane count + element width + emitter version); a cached .so embeds
 * the key and is re-verified at load, so corrupted or stale entries
 * fall back to a fresh compile. Compilation is best-effort by design:
 * every failure path (FLEET_JIT_DISABLE=1, no toolchain, compile or
 * dlopen error) returns a Status instead of throwing, and the system
 * layer (system/fleet_system.cc) degrades the group to the interpreted
 * batch (PuBackend::Rtl) with a structured log line.
 *
 * Environment knobs:
 *   FLEET_JIT_DISABLE    nonempty & != "0": report unavailable.
 *   FLEET_JIT_CC         compiler executable (default: cc, gcc, clang).
 *   FLEET_JIT_CACHE_DIR  artifact directory (default:
 *                        $TMPDIR/fleet-jit-cache-<uid>).
 */

#include <cstdint>
#include <memory>
#include <string>

#include "rtl/tape.h"
#include "util/status.h"

namespace fleet {
namespace rtl {

struct JitOptions
{
    /** SoA lane count the code is specialized for (baked as a literal;
     * part of the cache key). */
    int lanes = 1;
    /** Artifact directory; "" = FLEET_JIT_CACHE_DIR or the per-user
     * default under $TMPDIR. */
    std::string cacheDir;
    /** Compiler executable; "" = FLEET_JIT_CC, then cc/gcc/clang. */
    std::string compiler;
    /** Bypass the in-process and on-disk caches (cache tests). */
    bool forceRecompile = false;
};

/** A compiled-and-loaded tape. Immutable and thread-safe after
 * compile(); one instance is shared by every BatchSimulator with the
 * same (tape, lanes). */
class JitProgram
{
  public:
    /**
     * Ok when a JIT compile can plausibly succeed right now: platform
     * supported, not disabled via FLEET_JIT_DISABLE, and a working C
     * compiler found. InvalidArgument with the reason otherwise. The
     * compiler probe spawns a shell; compile() does not call this and
     * probes only when it has to compile.
     */
    static Status availability(const JitOptions &opts = {});

    /**
     * Emit, compile, load. Returns nullptr (never throws) on any
     * failure, with the reason in *status: unavailability is
     * InvalidArgument, a compile or load error is InternalError. The
     * returned program is shared: a second compile of the same
     * (tape, lanes) in this process returns the same instance, and a
     * cached on-disk artifact is reused without looking for a compiler.
     */
    static std::shared_ptr<const JitProgram>
    compile(const TapeProgram &tape, const JitOptions &opts = {},
            Status *status = nullptr);

    ~JitProgram();
    JitProgram(const JitProgram &) = delete;
    JitProgram &operator=(const JitProgram &) = delete;

    int lanes() const { return lanes_; }
    /** 32 under TapeProgram::fits32 (matches BatchSimulator), else 64. */
    int elementBits() const { return elem32_ ? 32 : 64; }
    uint64_t key() const { return key_; }
    /** True when the .so was reused from disk (no compiler invoked). */
    bool fromDiskCache() const { return fromDiskCache_; }
    /** Wall milliseconds spent emitting + compiling + loading. Near
     * zero on a disk-cache hit. */
    double compileMillis() const { return compileMillis_; }
    const std::string &artifactPath() const { return artifactPath_; }

    /**
     * Evaluate combinational logic for lanes [lane_lo, lane_hi).
     * `slots` is BatchSimulator's SoA slot array (uint32_t* or
     * uint64_t* per elementBits()).
     */
    void eval(void *slots, int lane_lo, int lane_hi) const
    {
        eval_(slots, lane_lo, lane_hi);
    }

    /**
     * Clock edge for lanes [lane_lo, lane_hi): BRAM read-first latches
     * + writes, register commits, then publish — the exact
     * BatchSimulator::step() ordering. `bram_mems[i]` is BRAM i's SoA
     * array ([addr * lanes + lane]).
     */
    void step(void *slots, void *regs, void *const *bram_mems,
              int lane_lo, int lane_hi) const
    {
        step_(slots, regs, bram_mems, lane_lo, lane_hi);
    }

    /** Cache key: tape contentHash() mixed with lanes, element width
     * and the emitter version. */
    static uint64_t cacheKey(const TapeProgram &tape, int lanes);

    /** Clear the in-process program registry (cache-behaviour tests
     * only), forcing the next compile() to consult the on-disk cache. */
    static void dropInProcessCacheForTests();

    /** The generated C translation unit (tests and debugging). */
    static std::string emitSource(const TapeProgram &tape, int lanes);

  private:
    JitProgram() = default;

    using EvalFn = void (*)(void *, int, int);
    using StepFn = void (*)(void *, void *, void *const *, int, int);

    void *handle_ = nullptr;
    EvalFn eval_ = nullptr;
    StepFn step_ = nullptr;
    int lanes_ = 0;
    bool elem32_ = false;
    uint64_t key_ = 0;
    bool fromDiskCache_ = false;
    double compileMillis_ = 0.0;
    std::string artifactPath_;
};

} // namespace rtl
} // namespace fleet

#endif // FLEET_RTL_JIT_H
