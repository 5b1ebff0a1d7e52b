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
 * Token tables: when the input token is at most 8 bits wide, the plan
 * also folds over the token's 2^w values. A node is token-only when its
 * leaves are the Input and constants; the Input itself is token-only
 * only beside another token-only node, since a table of the Input alone
 * saves nothing. Each token-only node is evaluated
 * once per token value at plan build, node by node over the whole
 * column, by the same apply() the simulator runs (one opcode dispatch
 * per column). The token table keeps one row per token value, holding
 * the frontier: the token-only nodes that other nodes, step conditions
 * or actions read. No cone holds a token-only node; the simulator
 * writes the token's row into its memo when it loads a token, and those
 * slots never expire. (Regex: 30 of its 65 nodes are token-only, and a
 * virtual cycle's cones evaluate 22 nodes where they evaluated 52.)
 *
 * A plan is built once per program and shared read-only by every
 * simulator of it (FastPu arms, SIMT lanes); per-cycle simulator
 * state is sized by plan.size() alone.
 */

#include <cstdint>
#include <type_traits>
#include <vector>

#include "lang/ast.h"
#include "util/bits.h"
#include "util/logging.h"

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

    /** Widest input token whose values the plan tabulates. */
    static constexpr int kMaxTabulatedWidth = 8;

    /** The token table (see the file comment). */
    struct TokenTable
    {
        /** The token-only nodes something else reads, ascending. */
        std::vector<uint32_t> frontier;
        /** Row t, frontier.size() words from t * frontier.size():
         * the frontier's values at token t (2^w rows). */
        std::vector<uint64_t> rows;
    };

    /** Lower `program` (kept by value for its declarations). */
    explicit EvalPlan(lang::Program program);

    /** An opcode as a type, for dispatch(). */
    template <Op O>
    using OpTag = std::integral_constant<Op, O>;

    /**
     * Call f(OpTag<op>()) and return its result: one switch over the
     * opcodes, whose cases a caller can give whole loops.
     */
    template <class F>
    [[gnu::always_inline]] static inline auto
    dispatch(Op op, F &&f)
    {
        switch (op) {
          case Op::Const: return f(OpTag<Op::Const>());
          case Op::Input: return f(OpTag<Op::Input>());
          case Op::StreamFinished: return f(OpTag<Op::StreamFinished>());
          case Op::State: return f(OpTag<Op::State>());
          case Op::Indexed: return f(OpTag<Op::Indexed>());
          case Op::Mux: return f(OpTag<Op::Mux>());
          case Op::Slice: return f(OpTag<Op::Slice>());
          case Op::Concat: return f(OpTag<Op::Concat>());
          case Op::Add: return f(OpTag<Op::Add>());
          case Op::Sub: return f(OpTag<Op::Sub>());
          case Op::Mul: return f(OpTag<Op::Mul>());
          case Op::And: return f(OpTag<Op::And>());
          case Op::Or: return f(OpTag<Op::Or>());
          case Op::Xor: return f(OpTag<Op::Xor>());
          case Op::Shl: return f(OpTag<Op::Shl>());
          case Op::Shr: return f(OpTag<Op::Shr>());
          case Op::Eq: return f(OpTag<Op::Eq>());
          case Op::Ne: return f(OpTag<Op::Ne>());
          case Op::Ult: return f(OpTag<Op::Ult>());
          case Op::Ule: return f(OpTag<Op::Ule>());
          case Op::Ugt: return f(OpTag<Op::Ugt>());
          case Op::Uge: return f(OpTag<Op::Uge>());
          case Op::Slt: return f(OpTag<Op::Slt>());
          case Op::Sle: return f(OpTag<Op::Sle>());
          case Op::Sgt: return f(OpTag<Op::Sgt>());
          case Op::Sge: return f(OpTag<Op::Sge>());
          case Op::LAnd: return f(OpTag<Op::LAnd>());
          case Op::LOr: return f(OpTag<Op::LOr>());
          case Op::Not: return f(OpTag<Op::Not>());
          case Op::LNot: return f(OpTag<Op::LNot>());
          case Op::Neg: return f(OpTag<Op::Neg>());
        }
        panic("EvalPlan: unknown opcode");
    }

    /**
     * The value of node `n`, of opcode O: the one definition of the
     * fused opcodes, run by the simulator and by the token tables'
     * build. `in` supplies what a node reads, each only when its opcode
     * reads it: in.token(), in.finished(), in.state(word),
     * in.operand(node) for an operand's value, and in.leg(node) for a
     * mux leg's (so the unselected leg is never read).
     */
    template <Op O, class In>
    [[gnu::always_inline]] static inline uint64_t
    apply(const Node &n, In &in)
    {
        auto a = [&] { return in.operand(n.a); };
        auto b = [&] { return in.operand(n.b); };
        if constexpr (O == Op::Const) {
            return n.imm;
        } else if constexpr (O == Op::Input) {
            return in.token();
        } else if constexpr (O == Op::StreamFinished) {
            return in.finished();
        } else if constexpr (O == Op::State) {
            return in.state(n.imm);
        } else if constexpr (O == Op::Indexed) {
            // Out-of-range reads return 0, matching the hardware mux
            // tree's don't-care behaviour; gated BRAM reads are
            // range-checked separately via bramReads.
            const uint64_t index = a();
            return index < n.aux ? in.state(n.imm + index) : 0;
        } else if constexpr (O == Op::Mux) {
            // Only the selected leg is read; read accounting is handled
            // separately via bramReads, whose gating conditions
            // replicate exactly this mux-path behaviour.
            return in.operand(n.c) != 0 ? in.leg(n.a) : in.leg(n.b);
        } else if constexpr (O == Op::Slice) {
            return (a() >> n.imm) & n.aux;
        } else if constexpr (O == Op::Concat) {
            return (a() << n.bWidth) | b();
        // The operators, as util/ops.h defines them, with the result
        // mask (aux) precomputed.
        } else if constexpr (O == Op::Add) {
            return (a() + b()) & n.aux;
        } else if constexpr (O == Op::Sub) {
            return (a() - b()) & n.aux;
        } else if constexpr (O == Op::Mul) {
            return (a() * b()) & n.aux;
        } else if constexpr (O == Op::And) {
            return a() & b();
        } else if constexpr (O == Op::Or) {
            return a() | b();
        } else if constexpr (O == Op::Xor) {
            return a() ^ b();
        } else if constexpr (O == Op::Shl) {
            const uint64_t x = a(), s = b();
            return s >= n.aWidth ? 0 : (x << s) & n.aux;
        } else if constexpr (O == Op::Shr) {
            const uint64_t x = a(), s = b();
            return s >= 64 ? 0 : (x >> s) & n.aux;
        } else if constexpr (O == Op::Eq) {
            return a() == b();
        } else if constexpr (O == Op::Ne) {
            return a() != b();
        } else if constexpr (O == Op::Ult) {
            return a() < b();
        } else if constexpr (O == Op::Ule) {
            return a() <= b();
        } else if constexpr (O == Op::Ugt) {
            return a() > b();
        } else if constexpr (O == Op::Uge) {
            return a() >= b();
        } else if constexpr (O == Op::Slt) {
            return signExtend64(a(), n.aWidth) < signExtend64(b(), n.bWidth);
        } else if constexpr (O == Op::Sle) {
            return signExtend64(a(), n.aWidth) <=
                   signExtend64(b(), n.bWidth);
        } else if constexpr (O == Op::Sgt) {
            return signExtend64(a(), n.aWidth) > signExtend64(b(), n.bWidth);
        } else if constexpr (O == Op::Sge) {
            return signExtend64(a(), n.aWidth) >=
                   signExtend64(b(), n.bWidth);
        } else if constexpr (O == Op::LAnd) {
            return a() != 0 && b() != 0;
        } else if constexpr (O == Op::LOr) {
            return a() != 0 || b() != 0;
        } else if constexpr (O == Op::Not) {
            return ~a() & n.aux;
        } else if constexpr (O == Op::LNot) {
            return a() == 0;
        } else {
            static_assert(O == Op::Neg);
            return (~a() + 1) & n.aux;
        }
    }

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

    /** Per node: 1 if token-only (never, for tokens wider than
     * kMaxTabulatedWidth). */
    std::vector<uint8_t> tokenOnly;
    /** Empty unless some node is token-only. */
    TokenTable tokens;

    /**
     * Reset value of the flat state: registers at offsets [0, regs),
     * then each vector register's elements, then each BRAM's words.
     */
    std::vector<uint64_t> initState;
};

/**
 * The token table of a plan whose nodes, tokenOnly flags, walk and
 * actions are built (the constructor's last step; callable on its own
 * to time it).
 */
EvalPlan::TokenTable tabulate(const EvalPlan &plan);

} // namespace sim
} // namespace fleet

#endif // FLEET_SIM_PLAN_H
