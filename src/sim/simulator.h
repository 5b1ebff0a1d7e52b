#ifndef FLEET_SIM_SIMULATOR_H
#define FLEET_SIM_SIMULATOR_H

/**
 * @file
 * Functional ("software") simulator for Fleet programs, corresponding to
 * the software simulator of Sections 3 and 6 of the paper. It executes
 * virtual cycles directly on the AST with concurrent semantics, produces
 * the output token stream, and detects the dynamic restriction violations
 * the language imposes:
 *
 *  - more than one distinct BRAM read address per BRAM per virtual cycle,
 *  - more than one write per BRAM per virtual cycle,
 *  - more than one emit per virtual cycle,
 *  - more than one assignment to a register or vector element per cycle,
 *  - out-of-range BRAM/vector writes or gated BRAM reads.
 *
 * It can also record a per-virtual-cycle trace (token consumed? token
 * emitted?) which the fast full-system PU timing model replays
 * (system/pu_fast.h), and it reports whether any virtual cycle read a BRAM
 * address written by the immediately preceding virtual cycle — the paper's
 * check for eliding the BRAM forwarding register.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lang/ast.h"
#include "lang/flatten.h"
#include "util/bitbuf.h"

namespace fleet {
namespace sim {

/** Per-virtual-cycle trace flags (for the fast timing model). */
enum VcycleFlags : uint8_t
{
    kVcycleConsumesToken = 1 << 0, ///< Final virtual cycle for its token.
    kVcycleEmits = 1 << 1,         ///< Emits one output token.
};

struct SimOptions
{
    /** Record the per-virtual-cycle trace in RunResult::trace. */
    bool recordTrace = false;
    /** Abort if a single token takes more virtual cycles than this. */
    uint64_t maxVcyclesPerToken = 1ULL << 22;
};

struct RunResult
{
    BitBuffer output;           ///< Emitted tokens, packed.
    uint64_t tokens = 0;        ///< Input tokens consumed.
    uint64_t vcycles = 0;       ///< Total virtual cycles (incl. cleanup).
    uint64_t emits = 0;         ///< Output tokens produced.
    std::vector<uint8_t> trace; ///< Per-vcycle flags if recordTrace.
    /**
     * True if some virtual cycle read a BRAM address written by the
     * previous virtual cycle; if false for all example streams, the
     * compiler's forwarding register could be elided (paper, Section 4).
     */
    bool usedBramForwarding = false;
};

class FunctionalSimulator
{
  public:
    explicit FunctionalSimulator(const lang::Program &program,
                                 SimOptions options = {});
    /**
     * Run on `flat`, which must be lang::flatten(program). Flattening
     * mints new expression nodes, each taking a process-wide eval id
     * that sizes the memo, so callers that build many simulators of
     * one program (FastPu re-arms) flatten once and share the result.
     */
    FunctionalSimulator(const lang::Program &program,
                        std::shared_ptr<const lang::FlatProgram> flat,
                        SimOptions options = {});

    /**
     * Run the program over a complete input stream (tokens packed at the
     * program's input token width), including the stream-finished cleanup
     * virtual cycles. Throws FatalError on a restriction violation.
     */
    RunResult run(const BitBuffer &input);

    /// @name Single-step interface (used by the SIMT divergence model).
    /// @{
    /** Reset state and begin a new stream. */
    void beginStream(const BitBuffer &input);
    /** True once the cleanup virtual cycles have completed. */
    bool streamDone() const { return phase_ == Phase::Done; }
    /**
     * Execute one virtual cycle. If `signature` is non-null it receives
     * one byte per flattened action (assignments then emits), 1 if the
     * action executed — the per-lane control signature the SIMT model
     * groups on. Returns the VcycleFlags of the cycle.
     */
    uint8_t stepVcycle(std::vector<uint8_t> *signature = nullptr);
    /** Results accumulated since beginStream(). */
    const RunResult &partialResult() const { return result_; }
    /// @}

    const lang::Program &program() const { return program_; }
    const lang::FlatProgram &flat() const { return *flat_; }

  private:
    struct State
    {
        std::vector<uint64_t> regs;
        std::vector<std::vector<uint64_t>> vregs;
        std::vector<std::vector<uint64_t>> brams;
    };

    enum class Phase { Tokens, Cleanup, Done };

    void reset();
    uint64_t eval(const lang::Expr &e) const;
    uint64_t evalUncached(const lang::Expr &e) const;
    bool evalGate(const lang::Expr &cond, bool inside_while,
                  bool while_active) const;
    /** Execute one virtual cycle; returns true if the token was consumed. */
    bool runVcycle(RunResult &result, std::vector<uint8_t> *signature);
    [[noreturn]] void violation(const std::string &message) const;

    lang::Program program_;
    std::shared_ptr<const lang::FlatProgram> flat_;
    SimOptions options_;

    State state_;
    uint64_t currentToken_ = 0;
    bool streamFinished_ = false;
    uint64_t tokenIndex_ = 0;

    // Single-step stream state.
    BitBuffer input_;
    uint64_t tokenCount_ = 0;
    Phase phase_ = Phase::Done;
    uint64_t vcyclesThisToken_ = 0;
    RunResult result_;

    /** (bramId, addr) written by the previous virtual cycle, or addr==-1. */
    std::vector<int64_t> prevWriteAddr_;

    /**
     * Per-virtual-cycle evaluation memo. Expressions are DAGs with heavy
     * sharing (e.g. the Smith-Waterman row chain), so values are cached
     * per node per virtual cycle; the epoch counter invalidates the cache
     * without clearing it.
     */
    mutable std::vector<uint64_t> evalCache_;
    mutable std::vector<uint64_t> evalEpochs_;
    uint64_t evalEpoch_ = 1;
};

} // namespace sim
} // namespace fleet

#endif // FLEET_SIM_SIMULATOR_H
