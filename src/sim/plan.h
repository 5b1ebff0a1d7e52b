#ifndef FLEET_SIM_PLAN_H
#define FLEET_SIM_PLAN_H

/**
 * @file
 * Evaluation plan of a Fleet program for the functional simulator: its
 * expressions lowered once into a dense, immutable node array in
 * topological order (operands before users), and its statement tree
 * lowered into a linear walk whose steps refer to nodes by index.
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
 * The walk keeps the program's `if` tree instead of flattening it into
 * per-action conjunctions (lang/flatten.h, Section 4 of the paper):
 * hardware evaluates every gate in every cycle, but a virtual cycle in
 * software only needs the conditions on the path it takes. An `if` /
 * `elif` chain becomes one Test per arm in priority order, each jumping
 * to the next arm when false; a `while` becomes a While step, a Test
 * whose taken body marks the cycle as a loop cycle; straight-line
 * statements become Actions steps naming ranges of the plan's BRAM-read
 * occurrences, assignments and emits. Actions are numbered in
 * lang::flatten's order, so a cycle's open actions, visited in walk
 * order, are in that order too. A BRAM read keeps only the gate of the
 * mux selects on its path inside its expression.
 *
 * Each Test or While step carries the cone of its condition, and each
 * Actions step the cone of its actions' values, indices, addresses and
 * read gates (a gated read's address waits for its gate): the nodes
 * reached from those roots through everything except mux legs, in
 * topological order, less the nodes that steps dominating it already
 * computed. Those are the enclosing tests, the earlier arms of its
 * chain, the first arm or while condition of each earlier statement in
 * its block, and the Actions steps among them that every cycle
 * reaching them runs (in-loop ones, and out-of-loop ones before the
 * first loop). The simulator evaluates a cone with no memo check;
 * what no cone holds (mux legs, gated addresses) is evaluated on
 * demand through a per-cycle memo.
 *
 * A plan is built once per program and shared read-only by every
 * simulator of it (FastPu arms, SIMT lanes); per-cycle simulator
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

    struct Assign
    {
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
        uint32_t value;
    };

    struct BramRead
    {
        /** The mux selects on the read's path within its expression;
         * kNone: the read happens whenever its statement runs. */
        uint32_t gate;
        int bramId;
        uint32_t addr;
    };

    /** Half-open range of action indices. */
    struct Range
    {
        uint32_t begin = 0, end = 0;
    };

    struct Step
    {
        enum class Kind : uint8_t
        {
            /** Evaluate the cone; go to target if cond is 0. */
            Test,
            /** A Test whose taken body is a loop body. */
            While,
            Jump,        ///< Go to target.
            Actions,     ///< Open actions outside every loop body.
            LoopActions, ///< Open actions inside a loop body.
            /** End the walk in a loop cycle: no later step enters a
             * loop body, so the rest is dead in it. */
            LoopExit,
        };
        Kind kind = Kind::Actions;
        uint32_t cond = kNone;
        /** The step's cone: cones[coneBegin, coneEnd). */
        uint32_t coneBegin = 0, coneEnd = 0;
        uint32_t target = 0;
        /** Actions, LoopActions: the actions opened. */
        Range reads, assigns, emits;
    };

    /** Lower `program` (kept by value for its declarations). */
    explicit EvalPlan(lang::Program program);

    /** Number of nodes; the size of a simulator's per-cycle memo. */
    size_t size() const { return nodes.size(); }

    lang::Program program;
    std::vector<Node> nodes;

    /** Actions, numbered in lang::flatten's order. */
    std::vector<Assign> assigns;
    std::vector<Emit> emits;
    std::vector<BramRead> bramReads;

    /** The statement tree as steps, run from 0 to the end. */
    std::vector<Step> walk;
    /** The steps' cone nodes, topological per step. */
    std::vector<uint32_t> cones;

    /**
     * Reset value of the flat state: registers at offsets [0, regs),
     * then each vector register's elements, then each BRAM's words.
     */
    std::vector<uint64_t> initState;
};

} // namespace sim
} // namespace fleet

#endif // FLEET_SIM_PLAN_H
