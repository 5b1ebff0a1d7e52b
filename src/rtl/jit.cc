#include "rtl/jit.h"

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define FLEET_JIT_SUPPORTED 1
#include <dlfcn.h>
#include <unistd.h>
#endif

#include "util/logging.h"

namespace fleet {
namespace rtl {

namespace {

/** Bumping this invalidates every cached artifact (the key mixes it
 * in), so emitter changes can never resurrect a stale .so. */
constexpr uint64_t kEmitterVersion = 5;
constexpr int kJitAbi = 2;

/**
 * Ops per generated chunk function. Chunking bounds the host
 * compiler's per-function work (one multi-thousand-op loop body makes
 * -O2 superlinear) while keeping loops long enough to amortize the
 * lane-loop overhead; in-chunk consumers still read producer locals,
 * and cross-chunk values go through the slot array (which every op
 * stores to anyway, preserving value() observability).
 *
 * The chunk size is a cache blocking parameter, not just a compile-time
 * knob: each vector iteration of a chunk touches every distinct slot
 * row (lanes * elem bytes each) its ops reference, and the lane loop
 * re-traverses that set lanes/VW times. A chunk therefore wants its
 * working set (~2 rows per op) to stay L1-resident so only the first
 * lane block pays the miss; at 64 ops that is ~128 rows = 64 KiB for 64
 * 64-bit lanes. Big chunks (we shipped 224 at first) blow this out to
 * hundreds of KiB re-streamed from L2/L3 per lane block and end up
 * slower than the op-major interpreter, which streams each row once.
 */
constexpr int kChunkOps = 64;

void
fnvMix(uint64_t &h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= 1099511628211ull;
    }
}

bool
jitDisabled()
{
    const char *env = std::getenv("FLEET_JIT_DISABLE");
    return env && *env && std::string(env) != "0";
}

std::string
defaultCacheDir()
{
    const char *env = std::getenv("FLEET_JIT_CACHE_DIR");
    if (env && *env)
        return env;
    const char *tmp = std::getenv("TMPDIR");
    std::string base = tmp && *tmp ? tmp : "/tmp";
#ifdef FLEET_JIT_SUPPORTED
    return base + "/fleet-jit-cache-" + std::to_string(uint64_t(getuid()));
#else
    return base + "/fleet-jit-cache";
#endif
}

std::string
shellQuote(const std::string &s)
{
    std::string out = "'";
    for (char c : s)
        out += c == '\'' ? std::string("'\\''") : std::string(1, c);
    out += "'";
    return out;
}

bool
commandWorks(const std::string &cc)
{
    std::string cmd = "command -v " + shellQuote(cc) + " >/dev/null 2>&1";
    return std::system(cmd.c_str()) == 0;
}

std::string
discoverCompiler(const JitOptions &opts, Status *why)
{
    std::vector<std::string> cands;
    if (!opts.compiler.empty()) {
        cands.push_back(opts.compiler);
    } else if (const char *env = std::getenv("FLEET_JIT_CC");
               env && *env) {
        cands.push_back(env);
    } else {
        // C++ drivers first: the emitted kernels use GNU vector
        // ternaries (element-wise ?:), which gcc only accepts in C++
        // mode (clang accepts them in C too). The source is compiled
        // with -x c++ regardless of the driver name.
        cands = {"c++", "g++", "clang++", "cc", "gcc", "clang"};
    }
    for (const auto &c : cands)
        if (commandWorks(c))
            return c;
    std::string tried;
    for (const auto &c : cands)
        tried += (tried.empty() ? "" : ", ") + c;
    *why = Status::make(StatusCode::InvalidArgument,
                        "no working host compiler (tried: " + tried + ")");
    return "";
}

/** In-process sharing: (cacheKey -> live program), so many
 * FleetSystems over the same program reuse one loaded .so. */
std::mutex &
registryMutex()
{
    static std::mutex mu;
    return mu;
}
std::unordered_map<uint64_t, std::weak_ptr<const JitProgram>> &
registry()
{
    static std::unordered_map<uint64_t, std::weak_ptr<const JitProgram>> r;
    return r;
}

} // namespace

void
JitProgram::dropInProcessCacheForTests()
{
    std::lock_guard<std::mutex> lk(registryMutex());
    registry().clear();
}

uint64_t
JitProgram::cacheKey(const TapeProgram &tape, int lanes)
{
    uint64_t h = tape.contentHash();
    fnvMix(h, kEmitterVersion);
    fnvMix(h, uint64_t(kJitAbi));
    fnvMix(h, uint64_t(lanes));
    fnvMix(h, tape.fits32 ? 32 : 64);
    return h;
}

std::string
JitProgram::emitSource(const TapeProgram &t, int lanes)
{
    const bool e32 = t.fits32;
    const int EB = e32 ? 32 : 64;
    const uint64_t emask = e32 ? 0xffffffffull : ~uint64_t(0);
    const uint64_t key = cacheKey(t, lanes);

    std::vector<char> is_const(size_t(t.numSlots), 0);
    std::vector<uint64_t> const_val(size_t(t.numSlots), 0);
    for (const auto &[s, v] : t.constSlots) {
        is_const[size_t(s)] = 1;
        const_val[size_t(s)] = v;
    }
    /** Chunk index whose loop body holds slot's local; -1 = state slot
     * or not yet defined. */
    std::vector<int> def_chunk(size_t(t.numSlots), -1);

    // ----- Store liveness. A chunk keeps every op result in a local;
    // the slot array only needs the values someone can read back after
    // eval returns:
    //  - slots the clock edge reads (register next/enable, BRAM ports),
    //  - output-port slots (the observable roots: RunReports, traces
    //    and the system's handshake plumbing read them via value()),
    //  - operands consumed by a different chunk than the defining one.
    // Everything else stays in registers. This is the jit's structural
    // advantage over the op-major interpreter, which must store every
    // op result — on store-bandwidth-bound hosts the eval sweep is
    // otherwise at parity with the interpreter's vectorized loops.
    // value() on a non-materialized interior node may return a stale
    // value, the same class of caveat TapeProgram::fits32 already
    // documents for wide interior nodes; ports, registers, BRAMs and
    // reports stay exact.
    std::vector<char> live_out(size_t(t.numSlots), 0);
    auto mark_live = [&](int32_t s) {
        if (s >= 0 && s < t.numSlots)
            live_out[size_t(s)] = 1;
    };
    for (const auto &r : t.regs) {
        mark_live(r.next);
        if (r.enable >= 0)
            mark_live(r.enable);
    }
    for (const auto &b : t.brams) {
        mark_live(b.rdAddr);
        mark_live(b.wrEn);
        mark_live(b.wrAddr);
        mark_live(b.wrData);
    }
    for (int32_t s : t.outputSlots)
        mark_live(s);
    {
        std::vector<int> sdef(size_t(t.numSlots), -1);
        for (size_t i = 0; i < t.ops.size(); ++i)
            sdef[size_t(t.ops[i].dst)] = int(i / size_t(kChunkOps));
        // Conservative per-op operand scan (unary ops carry junk in
        // b/c — the bounds + sdef checks make marking them harmless).
        auto cross_use = [&](int32_t s, int ch) {
            if (s >= 0 && size_t(s) < sdef.size() &&
                sdef[size_t(s)] >= 0 && sdef[size_t(s)] != ch)
                live_out[size_t(s)] = 1;
        };
        for (size_t i = 0; i < t.ops.size(); ++i) {
            const int ch = int(i / size_t(kChunkOps));
            cross_use(t.ops[i].a, ch);
            cross_use(t.ops[i].b, ch);
            cross_use(t.ops[i].c, ch);
        }
    }

    auto lit = [&](uint64_t v) {
        std::ostringstream os;
        os << "0x" << std::hex << (v & emask) << (e32 ? "u" : "ull");
        return os.str();
    };
    auto slot_ref = [&](int32_t slot) {
        return "s[" + std::to_string(int64_t(slot) * lanes) + " + l]";
    };
    auto masked = [&](const std::string &expr, uint64_t imm) {
        if ((imm & emask) == emask)
            return "(" + expr + ")";
        return "((" + expr + ") & " + lit(imm) + ")";
    };

    // Vector geometry for the explicit-SIMD eval loops. GNU vector
    // extensions are used instead of relying on the host compiler's
    // loop auto-vectorizer: fused chains of 1-bit logic trip gcc's
    // bool/bit-precision narrowing ("relevant stmt not supported"),
    // and select-heavy bodies get if-converted into masked scatters —
    // both silently produce scalar code. Explicit vector types always
    // lower to SIMD (or to split ops on narrower ISAs). 64-byte
    // vectors when a slot row is at least that wide (gcc splits them
    // for hosts without AVX-512); narrower rows drop to 32 or 16
    // bytes, and a scalar tail loop covers the remaining lanes. The
    // lane count is a compile-time constant, so a loop that would run
    // zero times is not emitted at all.
    const int elem_bytes = EB / 8;
    const int64_t row_bytes = int64_t(lanes) * elem_bytes;
    const int VB = row_bytes >= 64 ? 64 : row_bytes >= 32 ? 32 : 16;
    const int VW = VB / elem_bytes;
    const int vec_end = lanes / VW * VW;

    std::ostringstream out;
    out << "/* Generated by the fleet rtl jit emitter (rtl/jit.cc), "
           "version "
        << kEmitterVersion << ".\n"
        << " * Semantics mirror the batched sweep and BatchSimulator::step\n"
        << " * (rtl/batch_sim.cc) bit for bit; lanes = " << lanes
        << ", elem = " << EB << " bits. Do not edit. */\n"
        << "#include <stdint.h>\n"
        << "enum { kLanes = " << lanes << " };\n"
        << "typedef uint" << EB << "_t elem_t;\n"
        << "typedef int" << EB << "_t selem_t;\n"
        << "typedef elem_t vec __attribute__((vector_size(" << VB
        << ")));\n"
        << "typedef selem_t svec __attribute__((vector_size(" << VB
        << ")));\n"
        << "typedef elem_t vecu __attribute__((vector_size(" << VB
        << "), aligned(" << elem_bytes << "), may_alias));\n"
        // Compiled as C++ (for GNU vector ternaries): the exported
        // symbols need C linkage, and the variables must not be const
        // (C++ const at namespace scope means internal linkage).
        << "extern \"C\" unsigned long long fleet_jit_key = " << key
        << "ull;\n"
        << "extern \"C\" int fleet_jit_abi = " << kJitAbi << ";\n\n";

    // ----- Combinational evaluation, chunked into fused lane loops.
    // Each chunk body is emitted up to twice: a vector loop advancing
    // VW lanes per iteration and a scalar remainder loop with identical
    // semantics (for_lanes). Everything is branchless in both: selects
    // go through all-ones/all-zeros masks, variable shifts wrap the
    // count and mask the result, UnNot is the xor-with-mask form —
    // ternaries/branches around stores would reintroduce the
    // scalarizing patterns described above, and on narrow values
    // `~x & 1` becomes _Bool arithmetic.
    /** Run `body` over every lane: VW lanes per vector iteration, then
     * a scalar loop for the lanes left over. */
    auto for_lanes = [&](const auto &body) {
        if (vec_end > 0) {
            out << "    for (int l = 0; l < " << vec_end << "; l += " << VW
                << ") {\n";
            body(true);
            out << "    }\n";
        }
        if (vec_end < lanes) {
            out << "    for (int l = " << vec_end
                << "; l < kLanes; ++l) {\n";
            body(false);
            out << "    }\n";
        }
    };
    const size_t num_ops = t.ops.size();
    const int num_chunks =
        int((num_ops + size_t(kChunkOps) - 1) / size_t(kChunkOps));
    auto emit_ops = [&](int ch, size_t lo, size_t hi, bool V) {
        const char *ET = V ? "vec" : "elem_t";
        auto slot_mem = [&](int32_t slot, bool store) -> std::string {
            const std::string off = std::to_string(int64_t(slot) * lanes);
            if (V)
                return std::string("*(") + (store ? "" : "const ") +
                       "vecu *)(s + " + off + " + l)";
            return "s[" + off + " + l]";
        };
        auto opr = [&](int32_t slot) -> std::string {
            if (is_const[size_t(slot)])
                return lit(const_val[size_t(slot)]);
            if (def_chunk[size_t(slot)] == ch)
                return "t" + std::to_string(slot);
            return "(" + slot_mem(slot, false) + ")";
        };
        /** Force a (possibly scalar) expression to vector type; scalar
         * literals broadcast. No-op in scalar mode. */
        auto vb = [&](const std::string &x) {
            if (!V)
                return "(" + x + ")";
            return "((vec){0} + " + x + ")";
        };
        /** Comparison expression -> the 0/1 value the sweep stores.
         * In vector mode a GNU vector ternary: one compare-into-mask
         * plus one masked move, cheaper than materializing the 0/-1
         * mask and anding with 1. */
        auto cmp01 = [&](const std::string &c) {
            if (V)
                return "(" + c + " ? ((vec){0} + 1) : (vec){0})";
            return "(elem_t)" + c;
        };
        /** Comparison expression -> all-ones/all-zeros guard mask. */
        auto cmpMask = [&](const std::string &c) {
            if (V)
                return "(vec)" + c;
            return "((elem_t)0 - (elem_t)" + c + ")";
        };
        /** Sign-extend an EB-bit operand holding a `sh`-bits-narrower
         * value, as in the batched sweep. */
        auto sxm = [&](const std::string &x, int sh) {
            const char *ST = V ? "svec" : "selem_t";
            if (sh <= 0)
                return "(" + std::string(ST) + ")" + vb(x);
            std::string n = std::to_string(sh);
            return "((" + std::string(ST) + ")(" + vb(x) + " << " + n +
                   ") >> " + n + ")";
        };
        for (size_t i = lo; i < hi; ++i) {
            const TapeOp &op = t.ops[i];
            const std::string A = opr(op.a);
            const std::string B = opr(op.b);
            std::string rhs;
            // A uniform (U) variant emits as its base opcode: every
            // constant-slot operand is inlined as a literal anyway, so
            // the batched sweep's load-hoisting hint is moot here.
            switch (op.op) {
              case TapeOpcode::BinAdd:
              case TapeOpcode::BinAddU:
                rhs = masked(A + " + " + B, op.imm);
                break;
              case TapeOpcode::BinSub:
              case TapeOpcode::BinSubU:
                rhs = masked(vb(A) + " - " + B, op.imm);
                break;
              case TapeOpcode::BinMul:
              case TapeOpcode::BinMulU:
                rhs = masked(A + " * " + B, op.imm);
                break;
              case TapeOpcode::BinAnd:
              case TapeOpcode::BinAndU:
                rhs = "(" + A + " & " + B + ")";
                break;
              case TapeOpcode::BinOr:
              case TapeOpcode::BinOrU:
                rhs = "(" + A + " | " + B + ")";
                break;
              case TapeOpcode::BinXor:
              case TapeOpcode::BinXorU:
                rhs = "(" + A + " ^ " + B + ")";
                break;
              case TapeOpcode::BinShlC:
                rhs = op.sa >= EB
                          ? lit(0)
                          : masked(vb(A) + " << " + std::to_string(op.sa),
                                   op.imm);
                break;
              case TapeOpcode::BinShrC:
                rhs = op.sa >= EB
                          ? lit(0)
                          : "(" + vb(A) + " >> " + std::to_string(op.sa) +
                                ")";
                break;
              case TapeOpcode::BinShl: {
                // As in the interpreter: op.sa (the node width) may
                // exceed EB under demanded-width narrowing; any shift
                // >= min(width, EB) produces 0 in the low EB bits. The
                // wrapped count keeps the shift defined; the guard
                // mask zeroes out-of-range results.
                const int w = std::min<int>(op.sa, EB);
                rhs = "(" +
                      masked(vb(A) + " << (" + vb(B) + " & " +
                                 std::to_string(EB - 1) + ")",
                             op.imm) +
                      " & " + cmpMask("(" + vb(B) + " < " +
                                      lit(uint64_t(w)) + ")") +
                      ")";
                break;
              }
              case TapeOpcode::BinShr:
                rhs = "((" + vb(A) + " >> (" + vb(B) + " & " +
                      std::to_string(EB - 1) + ")) & " +
                      cmpMask("(" + vb(B) + " < " + lit(uint64_t(EB)) +
                              ")") +
                      ")";
                break;
              case TapeOpcode::BinEq:
              case TapeOpcode::BinEqU:
                rhs = cmp01("(" + vb(A) + " == " + B + ")");
                break;
              case TapeOpcode::BinNe:
              case TapeOpcode::BinNeU:
                rhs = cmp01("(" + vb(A) + " != " + B + ")");
                break;
              case TapeOpcode::BinUlt:
              case TapeOpcode::BinUltU:
                rhs = cmp01("(" + vb(A) + " < " + B + ")");
                break;
              case TapeOpcode::BinUle:
              case TapeOpcode::BinUleU:
                rhs = cmp01("(" + vb(A) + " <= " + B + ")");
                break;
              case TapeOpcode::BinUgt:
              case TapeOpcode::BinUgtU:
                rhs = cmp01("(" + vb(A) + " > " + B + ")");
                break;
              case TapeOpcode::BinUge:
              case TapeOpcode::BinUgeU:
                rhs = cmp01("(" + vb(A) + " >= " + B + ")");
                break;
              case TapeOpcode::BinSlt:
              case TapeOpcode::BinSle:
              case TapeOpcode::BinSgt:
              case TapeOpcode::BinSge: {
                const int sa = op.sa - (64 - EB);
                const int sb = op.sb - (64 - EB);
                if (sa < 0 || sb < 0)
                    panic("rtl: jit: signed-compare operand wider than "
                          "the lane element");
                const char *cmp = op.op == TapeOpcode::BinSlt   ? "<"
                                  : op.op == TapeOpcode::BinSle ? "<="
                                  : op.op == TapeOpcode::BinSgt ? ">"
                                                                : ">=";
                rhs = cmp01("(" + sxm(A, sa) + " " + cmp + " " +
                            sxm(B, sb) + ")");
                break;
              }
              case TapeOpcode::BinLAnd:
                rhs = "(" +
                      cmp01("(" + vb(A) + " != (elem_t)0)") + " & " +
                      cmp01("(" + vb(B) + " != (elem_t)0)") + ")";
                break;
              case TapeOpcode::BinLOr:
                rhs = "(" +
                      cmp01("(" + vb(A) + " != (elem_t)0)") + " | " +
                      cmp01("(" + vb(B) + " != (elem_t)0)") + ")";
                break;
              case TapeOpcode::UnNot:
                // (a ^ m) & m == (~a) & m for every a, without the ~.
                rhs = masked(vb(A) + " ^ " + lit(op.imm), op.imm);
                break;
              case TapeOpcode::UnLNot:
                rhs = cmp01("(" + vb(A) + " == (elem_t)0)");
                break;
              case TapeOpcode::UnNeg:
                rhs = V ? masked("(vec){0} - " + vb(A), op.imm)
                        : masked("(elem_t)0 - " + A, op.imm);
                break;
              case TapeOpcode::Mux:
              case TapeOpcode::MuxAU:
              case TapeOpcode::MuxBU:
              case TapeOpcode::MuxU2: {
                if (V) {
                    // Vector ternary: compare-into-mask + one blend.
                    rhs = "((" + vb(opr(op.c)) + " != (elem_t)0) ? " +
                          vb(A) + " : " + vb(B) + ")";
                    break;
                }
                const std::string mn = "m" + std::to_string(op.dst);
                out << "        const " << ET << " " << mn
                    << " = ((elem_t)0 - (" << opr(op.c) << " != 0));\n";
                rhs = "((" + A + " & " + mn + ") | (" + B + " & ~" + mn +
                      "))";
                break;
              }
              case TapeOpcode::Slice:
                rhs = op.sa >= EB
                          ? lit(0)
                          : masked(vb(A) + " >> " + std::to_string(op.sa),
                                   op.imm);
                break;
              case TapeOpcode::Concat:
                rhs = op.sa >= EB
                          ? B
                          : "((" + vb(A) + " << " + std::to_string(op.sa) +
                                ") | " + B + ")";
                break;
            }
            // Keep the value in a local for in-chunk consumers; store
            // it back to the slot row only when some later reader can
            // see it (live_out above). Dead stores are the dominant
            // cost on store-bound hosts.
            out << "        const " << ET << " t" << op.dst << " = "
                << (V ? vb(rhs) : rhs) << ";\n";
            if (live_out[size_t(op.dst)])
                out << "        " << slot_mem(op.dst, true) << " = t"
                    << op.dst << ";\n";
            def_chunk[size_t(op.dst)] = ch;
        }
    };
    for (int ch = 0; ch < num_chunks; ++ch) {
        const size_t lo = size_t(ch) * kChunkOps;
        const size_t hi = std::min(num_ops, lo + kChunkOps);
        out << "static void chunk" << ch
            << "(elem_t *__restrict__ s)\n{\n";
        for_lanes([&](bool V) { emit_ops(ch, lo, hi, V); });
        out << "}\n\n";
    }

    out << "extern \"C\" void fleet_jit_eval(void *vs)\n{\n";
    if (num_chunks > 0) {
        out << "    elem_t *__restrict__ s = (elem_t *)vs;\n";
        for (int ch = 0; ch < num_chunks; ++ch)
            out << "    chunk" << ch << "(s);\n";
    } else {
        out << "    (void)vs;\n";
    }
    out << "}\n\n";

    // ----- Clock edge: the exact BatchSimulator::step() commit order —
    // BRAM read-first latches and writes, register commits (reading
    // pre-edge slot values), then publish latches and register outputs.
    //
    // The BRAM section is inherently per-lane (each lane addresses a
    // different word: a gather/scatter), so it stays a scalar loop with
    // the latches in locals. The register commit and publish sections
    // are dense row operations and are emitted as explicit vector
    // loops like the eval chunks: with a few hundred registers the
    // scalar form is the slowest part of the whole jit cycle.
    //
    // Splitting the sections is only legal if publishing a BRAM's
    // rdData slot at the end of its lane iteration cannot be observed
    // by the (later) register loops: a register whose next/enable IS a
    // BRAM output node must read the pre-edge value. That coincidence
    // is detected at emit time and drops this step back to the fully
    // fused scalar loop, which handles it by ordering within the lane
    // body.
    out << "extern \"C\" void fleet_jit_step(void *vs, void *vr, "
           "void *const *vm)\n{\n";
    const bool step_active = !t.regs.empty() || !t.brams.empty();
    if (!step_active) {
        out << "    (void)vs;\n    (void)vr;\n    (void)vm;\n}\n";
        return out.str();
    }
    out << "    elem_t *__restrict__ s = (elem_t *)vs;\n";
    if (!t.regs.empty())
        out << "    elem_t *__restrict__ r = (elem_t *)vr;\n";
    else
        out << "    (void)vr;\n";
    if (!t.brams.empty()) {
        for (size_t i = 0; i < t.brams.size(); ++i)
            out << "    elem_t *const m" << i << " = (elem_t *)vm[" << i
                << "];\n";
    } else {
        out << "    (void)vm;\n";
    }

    bool publish_early_ok = true;
    for (const auto &b : t.brams)
        for (const auto &rg : t.regs)
            if (rg.next == b.rdData ||
                (rg.enable >= 0 && rg.enable == b.rdData))
                publish_early_ok = false;

    auto emit_bram_body = [&](size_t i) {
        const auto &b = t.brams[i];
        const std::string elems = std::to_string(b.elements) + "u";
        out << "        const elem_t ra" << i << " = " << slot_ref(b.rdAddr)
            << ";\n"
            << "        const elem_t lt" << i << " = ra" << i << " < "
            << elems << " ? m" << i << "[(uint64_t)ra" << i << " * "
            << lanes << " + l] : 0;\n"
            << "        if (" << slot_ref(b.wrEn) << " != 0) {\n"
            << "            const elem_t wa" << i << " = "
            << slot_ref(b.wrAddr) << ";\n"
            << "            if (wa" << i << " < " << elems << ")\n"
            << "                m" << i << "[(uint64_t)wa" << i << " * "
            << lanes << " + l] = " << slot_ref(b.wrData) << ";\n"
            << "        }\n";
    };

    if (!publish_early_ok) {
        // Fused scalar fallback: a register reads a BRAM output
        // directly, so every phase must interleave per lane.
        out << "    for (int l = 0; l < kLanes; ++l) {\n";
        for (size_t i = 0; i < t.brams.size(); ++i)
            emit_bram_body(i);
        for (size_t i = 0; i < t.regs.size(); ++i) {
            const auto &rg = t.regs[i];
            const std::string rv =
                "r[" + std::to_string(int64_t(i) * lanes) + " + l]";
            if (rg.enable < 0)
                out << "        " << rv << " = " << slot_ref(rg.next)
                    << ";\n";
            else
                out << "        if (" << slot_ref(rg.enable) << " != 0) "
                    << rv << " = " << slot_ref(rg.next) << ";\n";
        }
        for (size_t i = 0; i < t.brams.size(); ++i)
            out << "        " << slot_ref(t.brams[i].rdData) << " = lt"
                << i << ";\n";
        for (size_t i = 0; i < t.regs.size(); ++i)
            out << "        " << slot_ref(t.regs[i].out) << " = r["
                << int64_t(i) * lanes << " + l];\n";
        out << "    }\n}\n";
        return out.str();
    }

    if (!t.brams.empty()) {
        // Latch + conditional write + publish, per lane. rdData is
        // published at the end of the lane body, after every BRAM port
        // slot of that lane has been read (ports of later BRAMs may be
        // another BRAM's output).
        out << "    for (int l = 0; l < kLanes; ++l) {\n";
        for (size_t i = 0; i < t.brams.size(); ++i)
            emit_bram_body(i);
        for (size_t i = 0; i < t.brams.size(); ++i)
            out << "        " << slot_ref(t.brams[i].rdData) << " = lt"
                << i << ";\n";
        out << "    }\n";
    }
    if (!t.regs.empty()) {
        auto row = [&](const char *base, int64_t idx, bool V,
                       bool store) -> std::string {
            const std::string off = std::to_string(idx * lanes);
            if (V)
                return std::string("*(") + (store ? "" : "const ") +
                       "vecu *)(" + base + " + " + off + " + l)";
            return std::string(base) + "[" + off + " + l]";
        };
        // When no register reads another register's out slot, commit
        // straight into the out slots in one pass: every next/enable
        // row read here is pre-edge by construction, and the r[]
        // staging array is skipped entirely (regValue() reads the out
        // slot, which this keeps current). That halves the reg-phase
        // store traffic vs the interpreter's commit+publish sweeps.
        std::vector<char> is_reg_out(size_t(t.numSlots), 0);
        for (const auto &rg : t.regs)
            is_reg_out[size_t(rg.out)] = 1;
        bool chained = false;
        for (const auto &rg : t.regs)
            if (is_reg_out[size_t(rg.next)] ||
                (rg.enable >= 0 && is_reg_out[size_t(rg.enable)]))
                chained = true;
        auto emit_fused = [&](bool V) {
            for (size_t i = 0; i < t.regs.size(); ++i) {
                const auto &rg = t.regs[i];
                const std::string next = row("s", rg.next, V, false);
                const std::string ov = row("s", rg.out, V, true);
                if (rg.enable < 0)
                    out << "        " << ov << " = " << next << ";\n";
                else if (V)
                    out << "        " << ov << " = ((("
                        << row("s", rg.enable, true, false)
                        << ") != (elem_t)0) ? (" << next << ") : ("
                        << ov << "));\n";
                else
                    out << "        if ("
                        << row("s", rg.enable, false, false)
                        << " != 0) " << ov << " = " << next << ";\n";
            }
        };
        // Chained fallback: commit into r[] (disjoint from slots), so
        // each register reads pre-edge values regardless of order,
        // then publish r[] to the out slots.
        auto emit_commits = [&](bool V) {
            for (size_t i = 0; i < t.regs.size(); ++i) {
                const auto &rg = t.regs[i];
                const std::string next = row("s", rg.next, V, false);
                const std::string rv = row("r", int64_t(i), V, true);
                if (rg.enable < 0)
                    out << "        " << rv << " = " << next << ";\n";
                else if (V)
                    out << "        " << rv << " = ((("
                        << row("s", rg.enable, true, false)
                        << ") != (elem_t)0) ? (" << next << ") : ("
                        << rv << "));\n";
                else
                    out << "        if ("
                        << row("s", rg.enable, false, false)
                        << " != 0) " << rv << " = " << next << ";\n";
            }
        };
        auto emit_publishes = [&](bool V) {
            for (size_t i = 0; i < t.regs.size(); ++i)
                out << "        "
                    << row("s", t.regs[i].out, V, true) << " = "
                    << row("r", int64_t(i), V, false) << ";\n";
        };
        if (chained) {
            for_lanes(emit_commits);
            for_lanes(emit_publishes);
        } else {
            for_lanes(emit_fused);
        }
    }
    out << "}\n";
    return out.str();
}

Status
JitProgram::availability(const JitOptions &opts)
{
#ifndef FLEET_JIT_SUPPORTED
    (void)opts;
    return Status::make(StatusCode::InvalidArgument,
                        "jit unsupported on this platform (no dlopen)");
#else
    if (jitDisabled())
        return Status::make(StatusCode::InvalidArgument,
                            "jit disabled via FLEET_JIT_DISABLE");
    Status why;
    if (discoverCompiler(opts, &why).empty())
        return why;
    return {};
#endif
}

JitProgram::~JitProgram()
{
#ifdef FLEET_JIT_SUPPORTED
    if (handle_)
        dlclose(handle_);
#endif
}

std::shared_ptr<const JitProgram>
JitProgram::compile(const TapeProgram &tape, const JitOptions &opts,
                    Status *status)
{
    Status local;
    if (!status)
        status = &local;
    *status = {};
#ifndef FLEET_JIT_SUPPORTED
    (void)tape;
    *status = availability(opts);
    return nullptr;
#else
    if (opts.lanes < 1) {
        *status = Status::make(StatusCode::InvalidArgument,
                               "jit lane count must be >= 1");
        return nullptr;
    }
    if (int64_t(tape.numSlots) * opts.lanes > int64_t(INT_MAX)) {
        *status = Status::make(StatusCode::InvalidArgument,
                               "jit slot array exceeds int indexing");
        return nullptr;
    }
    const uint64_t key = cacheKey(tape, opts.lanes);
    if (!opts.forceRecompile) {
        std::lock_guard<std::mutex> lk(registryMutex());
        auto it = registry().find(key);
        if (it != registry().end())
            if (auto sp = it->second.lock())
                return sp;
    }
    // The compiler is discovered only when a compile actually runs
    // (probing it spawns a shell); a cached artifact needs none.
    if (jitDisabled()) {
        *status = availability(opts);
        return nullptr;
    }

    const auto t0 = std::chrono::steady_clock::now();
    // Compiles are rare (once per program x lane count) — serialize
    // them so concurrent system constructions never race on one
    // artifact path.
    static std::mutex compile_mu;
    std::lock_guard<std::mutex> clk(compile_mu);
    if (!opts.forceRecompile) {
        std::lock_guard<std::mutex> lk(registryMutex());
        auto it = registry().find(key);
        if (it != registry().end())
            if (auto sp = it->second.lock())
                return sp;
    }

    namespace fs = std::filesystem;
    std::error_code ec;
    const fs::path dir =
        opts.cacheDir.empty() ? fs::path(defaultCacheDir())
                              : fs::path(opts.cacheDir);
    fs::create_directories(dir, ec);
    if (ec) {
        *status = Status::make(StatusCode::IoError,
                               "jit cache dir " + dir.string() + ": " +
                                   ec.message());
        return nullptr;
    }
    char keyhex[24];
    std::snprintf(keyhex, sizeof keyhex, "%016llx",
                  (unsigned long long)key);
    const std::string stem = std::string("fleet-jit-") + keyhex;
    const fs::path so = dir / (stem + ".so");

    std::shared_ptr<JitProgram> prog(new JitProgram);
    prog->lanes_ = opts.lanes;
    prog->elem32_ = tape.fits32;
    prog->key_ = key;

    auto loadInto = [&](const std::string &path) -> Status {
        void *h = dlopen(path.c_str(), RTLD_NOW | RTLD_LOCAL);
        if (!h) {
            const char *err = dlerror();
            return Status::make(StatusCode::InternalError,
                                std::string("dlopen: ") +
                                    (err ? err : "unknown error"));
        }
        auto *k = reinterpret_cast<const unsigned long long *>(
            dlsym(h, "fleet_jit_key"));
        auto *abi =
            reinterpret_cast<const int *>(dlsym(h, "fleet_jit_abi"));
        auto ev = reinterpret_cast<EvalFn>(dlsym(h, "fleet_jit_eval"));
        auto st = reinterpret_cast<StepFn>(dlsym(h, "fleet_jit_step"));
        if (!k || !abi || !ev || !st || *k != key || *abi != kJitAbi) {
            dlclose(h);
            return Status::make(StatusCode::InternalError,
                                "artifact key/abi mismatch (stale or "
                                "corrupted cache entry)");
        }
        prog->handle_ = h;
        prog->eval_ = ev;
        prog->step_ = st;
        return {};
    };

    bool loaded = false;
    if (!opts.forceRecompile && fs::exists(so, ec)) {
        Status s = loadInto(so.string());
        if (s.ok()) {
            loaded = true;
            prog->fromDiskCache_ = true;
        } else {
            inform("rtl-jit: discarding unusable cache entry ",
                   so.string(), ": ", s.toString());
            fs::remove(so, ec);
        }
    }
    if (!loaded) {
        Status why;
        const std::string cc = discoverCompiler(opts, &why);
        if (cc.empty()) {
            *status = why;
            return nullptr;
        }
        std::string src;
        try {
            src = emitSource(tape, opts.lanes);
        } catch (const std::exception &e) {
            *status =
                Status::make(StatusCode::InternalError,
                             std::string("jit emit: ") + e.what());
            return nullptr;
        }
        const fs::path csrc = dir / (stem + ".c");
        {
            std::ofstream f(csrc, std::ios::trunc);
            f << src;
            if (!f) {
                *status = Status::make(StatusCode::IoError,
                                       "jit: cannot write " +
                                           csrc.string());
                return nullptr;
            }
        }
        const fs::path tmp =
            dir / (stem + ".tmp" + std::to_string(uint64_t(getpid())) +
                   ".so");
        const fs::path log = dir / (stem + ".log");
        auto tryCompile = [&](bool native) {
            // C++ mode for GNU vector ternaries (see discoverCompiler);
            // -fno-exceptions/-fno-rtti so the kernel needs no C++
            // runtime and links cleanly under a plain C driver too.
            std::string cmd =
                shellQuote(cc) +
                " -O3 -std=c++17 -fno-exceptions -fno-rtti"
                " -fPIC -shared" +
                (native ? " -march=native" : "") + " -x c++ " +
                shellQuote(csrc.string()) + " -o " +
                shellQuote(tmp.string()) + " > " +
                shellQuote(log.string()) + " 2>&1";
            return std::system(cmd.c_str()) == 0;
        };
        // -march=native lets the vectorizer use the host's widest ISA;
        // retried without it for toolchains that reject the flag.
        if (!tryCompile(true) && !tryCompile(false)) {
            fs::remove(tmp, ec);
            *status = Status::make(StatusCode::InternalError,
                                   "jit: " + cc + " failed; see " +
                                       log.string());
            return nullptr;
        }
        fs::rename(tmp, so, ec);
        if (ec) {
            fs::remove(tmp, ec);
            *status = Status::make(StatusCode::IoError,
                                   "jit: rename to " + so.string() +
                                       ": " + ec.message());
            return nullptr;
        }
        Status s = loadInto(so.string());
        if (!s.ok()) {
            *status = s;
            return nullptr;
        }
    }
    prog->artifactPath_ = so.string();
    prog->compileMillis_ =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    {
        std::lock_guard<std::mutex> lk(registryMutex());
        registry()[key] = prog;
    }
    return prog;
#endif
}

} // namespace rtl
} // namespace fleet
