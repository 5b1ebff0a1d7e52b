#ifndef FLEET_SIM_PLAN_H
#define FLEET_SIM_PLAN_H

/**
 * @file
 * Evaluation plan of a Fleet program for the functional simulator: the
 * program's flattened (condition, action) form (lang/flatten.h) lowered
 * once into a dense, immutable node array in topological order
 * (operands before users); the roots themselves (while conditions,
 * BRAM-read occurrences, assignments, emits) refer to entries by index.
 *
 * Lowering simplifies as it goes, in the same single walk over the
 * expression DAG:
 *  - constant folding: an operator, slice or concatenation whose
 *    operands are all constants becomes a constant (computed with
 *    util/ops.h), a vector or BRAM read at a constant index becomes a
 *    read of that one state word, and a mux with a constant selector
 *    becomes its selected leg (the other leg is never lowered), as
 *    does a mux whose two legs are one node;
 *  - hash-consing: a node structurally equal to an earlier one (same
 *    opcode, operand widths, operand indices and immediates) is that
 *    node, so separately built equal subtrees are evaluated once.
 * Both are exact: every node computes the value its source expression
 * would, so the simulator's results, restriction checks and traces are
 * those of the unsimplified program.
 *
 * Each node carries one fused opcode (operator and expression kind in
 * one) with its result mask precomputed, so evaluating it is a single
 * dispatch.
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

    /**
     * Fused node opcode. The binary operators follow BinOp's order from
     * Add and the unary ones UnOp's from Not, so the operator of a
     * fused code is one subtraction away (binOpOf / unOpOf).
     */
    enum class Op : uint8_t
    {
        Const,          ///< imm.
        Input,          ///< The current token.
        StreamFinished, ///< 1 in the cleanup cycles.
        State,          ///< Flat-state word imm.
        Indexed,        ///< Word imm + a of aux (0 when a >= aux).
        Mux,            ///< c != 0 ? a : b.
        Slice,          ///< (a >> imm) & aux.
        Concat,         ///< (a << bWidth) | b.
        Add, Sub, Mul,
        And, Or, Xor,
        Shl, Shr,
        Eq, Ne,
        Ult, Ule, Ugt, Uge,
        Slt, Sle, Sgt, Sge,
        LAnd, LOr,
        Not, LNot, Neg,
    };

    static constexpr Op
    binCode(BinOp op)
    {
        return Op(uint8_t(Op::Add) + uint8_t(op));
    }
    static constexpr Op
    unCode(UnOp op)
    {
        return Op(uint8_t(Op::Not) + uint8_t(op));
    }
    static constexpr bool
    isBin(Op op)
    {
        return op >= Op::Add && op < Op::Not;
    }
    static constexpr bool
    isUn(Op op)
    {
        return op >= Op::Not;
    }
    static constexpr BinOp
    binOpOf(Op op)
    {
        return BinOp(uint8_t(op) - uint8_t(Op::Add));
    }
    static constexpr UnOp
    unOpOf(Op op)
    {
        return UnOp(uint8_t(op) - uint8_t(Op::Not));
    }

    struct Node
    {
        Op op = Op::Const;
        uint8_t aWidth = 0; ///< Width of operand a (operators).
        uint8_t bWidth = 0; ///< Width of operand b (operators, Concat).
        uint32_t a = kNone, b = kNone, c = kNone;
        /** Const: the value. State, Indexed: offset of the (first)
         * state word in the flat state (see initState). Slice: the low
         * bit. */
        uint64_t imm = 0;
        /** Indexed: element count. Slice and operators: result
         * mask. */
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
