#ifndef FLEET_SIM_PLAN_H
#define FLEET_SIM_PLAN_H

/**
 * @file
 * Evaluation plan of a Fleet program for the functional simulator: the
 * program's flattened (condition, action) form (lang/flatten.h) lowered
 * once into a dense, immutable node array. Every distinct expression
 * node reachable from the program's roots becomes one entry, in
 * topological order (operands before users), with its operand indices,
 * operand widths and masks precomputed; the roots themselves (while
 * conditions, BRAM-read occurrences, assignments, emits) refer to
 * entries by index.
 *
 * The plan also splits the nodes by how a virtual cycle evaluates them.
 * The cone of the conditions every cycle evaluates anyway — while
 * conditions and action gates, followed through everything except mux
 * legs — is listed in topological order for one eager loop; everything
 * else (mux legs, assigned and emitted values, addresses and indices)
 * is evaluated on demand through a per-cycle memo.
 *
 * A plan is built once per program and shared read-only by every
 * simulator of it (FastPu re-arms, SIMT lanes); per-cycle simulator
 * state is sized by plan.size() alone.
 */

#include <cstdint>
#include <vector>

#include "lang/ast.h"

namespace fleet {
namespace sim {

struct EvalPlan
{
    /** Operand or condition index meaning "none" (null expression). */
    static constexpr uint32_t kNone = ~uint32_t(0);

    struct Node
    {
        lang::ExprKind kind;
        uint8_t op = 0;     ///< BinOp (Bin) or UnOp (Un).
        uint8_t aWidth = 0; ///< Width of operand a (Bin, Un).
        uint8_t bWidth = 0; ///< Width of operand b (Bin, Concat).
        uint32_t a = kNone, b = kNone, c = kNone;
        /** Const: the value. RegRead, VecRegRead, BramRead: offset of
         * the state element in the flat state (see initState). Slice:
         * the low bit. */
        uint64_t imm = 0;
        /** VecRegRead, BramRead: element count. Slice: result mask. */
        uint64_t aux = 0;
    };

    /** An action's gate: its `if`-path condition and while class. */
    struct Gate
    {
        uint32_t cond; ///< kNone: unconditional within its class.
        bool insideWhile;
    };

    struct Assign
    {
        Gate gate;
        lang::LValue::Kind kind;
        int stateId;
        uint32_t index; ///< Element index / address; kNone for Reg.
        uint32_t value;
        uint64_t base;     ///< Flat-state offset of the reg/element 0.
        uint64_t elements; ///< Element count (1 for Reg).
        int width;         ///< Target width; values truncate to it.
    };

    struct Emit
    {
        Gate gate;
        uint32_t value;
    };

    struct BramRead
    {
        Gate gate;
        int bramId;
        uint32_t addr;
    };

    /** Flatten and lower `program` (kept by value for its declarations). */
    explicit EvalPlan(lang::Program program);

    /** Number of nodes; the size of a simulator's per-cycle memo. */
    size_t size() const { return nodes.size(); }

    lang::Program program;
    std::vector<Node> nodes;

    std::vector<uint32_t> whileConds;
    std::vector<Assign> assigns;
    std::vector<Emit> emits;
    std::vector<BramRead> bramReads;

    /** Non-constant nodes evaluated eagerly every virtual cycle: the
     * cone of the while conditions and of in-loop gates. Topological. */
    std::vector<uint32_t> eager;
    /** The rest of the gate cone, evaluated eagerly only in cycles no
     * while loop is active (out-of-loop gates are dead otherwise). */
    std::vector<uint32_t> eagerOutsideWhile;

    /**
     * Reset value of the flat state: registers at offsets [0, regs),
     * then each vector register's elements, then each BRAM's words.
     */
    std::vector<uint64_t> initState;
};

} // namespace sim
} // namespace fleet

#endif // FLEET_SIM_PLAN_H
