#ifndef FLEET_SIM_SIMULATOR_H
#define FLEET_SIM_SIMULATOR_H

/**
 * @file
 * Functional ("software") simulator for Fleet programs, corresponding to
 * the software simulator of Sections 3 and 6 of the paper. It executes
 * virtual cycles with concurrent semantics, produces the output token
 * stream, and detects the dynamic restriction violations the language
 * imposes:
 *
 *  - more than one distinct BRAM read address per BRAM per virtual cycle,
 *  - more than one write per BRAM per virtual cycle,
 *  - more than one emit per virtual cycle,
 *  - more than one assignment to a register or vector element per cycle,
 *  - out-of-range BRAM/vector writes or gated BRAM reads.
 *
 * Each virtual cycle reports its flags (token consumed? token emitted?);
 * run() can keep them, and the fast full-system PU timing model replays
 * them (system/pu_fast.h). The simulator also reports whether any virtual
 * cycle read a BRAM address written by the immediately preceding virtual
 * cycle — the paper's check for eliding the BRAM forwarding register.
 *
 * The simulator runs from the program's EvalPlan (sim/plan.h), shared by
 * every simulator of the program, already folded and hash-consed. Each
 * virtual cycle follows the plan's walk of the statement tree: it
 * evaluates only the conditions on the path it takes and the values of
 * the actions under them, each step's as one loop over its cone, and
 * collects those actions as ranges; then it checks and applies them.
 * Mux legs and gated read addresses are evaluated on demand through an
 * epoch memo of plan.size() entries, so unselected legs and untaken
 * branches cost nothing. A node evaluates as one dispatch on its fused
 * opcode. In a cone its operands are read straight from the memo with
 * no epoch compare: each one is earlier in the cone, computed by a
 * dominating step's cone, or a constant, so its slot is already
 * current (mux legs stay lazy and go through the memo). All per-cycle
 * state is sized by the plan: there are no process-wide expression
 * ids, and a simulator costs the same however many others the process
 * has built.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lang/ast.h"
#include "sim/plan.h"
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
    /** Abort if a single token takes more virtual cycles than this. */
    uint64_t maxVcyclesPerToken = 1ULL << 22;
};

struct RunResult
{
    BitBuffer output;           ///< Emitted tokens, packed.
    uint64_t tokens = 0;        ///< Input tokens consumed.
    uint64_t vcycles = 0;       ///< Total virtual cycles (incl. cleanup).
    uint64_t emits = 0;         ///< Output tokens produced.
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
    /** Run from a plan shared with other simulators of its program;
     * callers that build many (FastPu arms, SIMT lanes) lower the
     * program once. */
    explicit FunctionalSimulator(std::shared_ptr<const EvalPlan> plan,
                                 SimOptions options = {});

    /**
     * Run the program over a complete input stream (tokens packed at the
     * program's input token width), including the stream-finished cleanup
     * virtual cycles. Throws FatalError on a restriction violation. If
     * `flags` is non-null, each virtual cycle's VcycleFlags (what
     * stepVcycle() returns) are appended to it.
     */
    RunResult run(const BitBuffer &input,
                  std::vector<uint8_t> *flags = nullptr);

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

    const lang::Program &program() const { return plan_->program; }
    const EvalPlan &plan() const { return *plan_; }
    /** Entries of per-virtual-cycle evaluation state: plan().size(). */
    size_t evalStateSize() const { return memo_.size(); }

  private:
    enum class Phase { Tokens, Cleanup, Done };

    /** One memo entry: a node's value, valid while epoch is current. */
    struct Slot
    {
        uint64_t value;
        uint64_t epoch;
    };

    struct PendingWrite
    {
        uint64_t offset; ///< Flat-state word.
        uint64_t value;
    };

    void reset();
    /** Begin a stream read in place from `input`. */
    void begin(const BitBuffer &input);
    uint64_t value(uint32_t node);
    uint64_t evalNode(uint32_t node);
    /** A node's value from its operands: read unchecked from the memo
     * if Eager (a cone), else through value(). */
    template <bool Eager>
    uint64_t compute(const EvalPlan::Node &n);
    /** Evaluate a step's cone, in order. */
    void evalCone(const EvalPlan::Step &step);
    /** Execute one virtual cycle; returns true if the token was consumed. */
    bool runVcycle(RunResult &result, std::vector<uint8_t> *signature);
    [[noreturn]] void violation(const std::string &message) const;

    std::shared_ptr<const EvalPlan> plan_;
    SimOptions options_;

    /** Registers, vector registers and BRAMs (EvalPlan::initState). */
    std::vector<uint64_t> state_;
    uint64_t currentToken_ = 0;
    bool streamFinished_ = false;
    uint64_t tokenIndex_ = 0;

    // Single-step stream state: input_ is the caller's buffer during
    // run() and ownedInput_, a copy, after beginStream().
    const BitBuffer *input_ = nullptr;
    BitBuffer ownedInput_;
    uint64_t tokenCount_ = 0;
    Phase phase_ = Phase::Done;
    uint64_t vcyclesThisToken_ = 0;
    RunResult result_;

    /** Per-BRAM address written by the previous virtual cycle, or -1. */
    std::vector<int64_t> prevWriteAddr_;

    /**
     * Per-virtual-cycle evaluation memo, one slot per plan node.
     * Expressions are DAGs with heavy sharing (e.g. the Smith-Waterman
     * row chain), so each node is evaluated at most once per virtual
     * cycle; bumping epoch_ invalidates every slot without clearing.
     * Constant slots carry an epoch that never expires.
     */
    std::vector<Slot> memo_;
    uint64_t epoch_ = 0;

    // Per-cycle scratch, reused across cycles.
    std::vector<int64_t> readAddr_;
    std::vector<int64_t> bramWriteAddr_;
    /** Per register and vector-register word: the epoch of the cycle
     * that last assigned it. */
    std::vector<uint64_t> writeEpoch_;
    std::vector<PendingWrite> writes_;
    /** The Actions steps the cycle's walk opened, in walk order. */
    std::vector<uint32_t> opened_;
};

} // namespace sim
} // namespace fleet

#endif // FLEET_SIM_SIMULATOR_H
