#include "sim/plan.h"

#include <algorithm>
#include <memory>
#include <variant>

#include "lang/flatten.h"
#include "util/bits.h"
#include "util/logging.h"

namespace fleet {
namespace sim {

using lang::ExprKind;
using lang::ExprNode;

namespace {

using Op = EvalPlan::Op;
using Node = EvalPlan::Node;
constexpr uint32_t kNone = EvalPlan::kNone;

/**
 * Lowers expression DAGs into the plan's node array, folding and
 * hash-consing each node as it is appended (see plan.h). Expressions
 * share subtrees heavily, so the walk visits each distinct expression
 * node once. Two open-addressed tables over power-of-two arrays make
 * that and the structural lookup cheap, with a handful of allocations
 * per plan and none per node: expression nodes by address (their plan
 * index in a side vector), and plan nodes by structure. Keyed by
 * address, every expression lowered must outlive the Lowering.
 */
class Lowering
{
  public:
    Lowering(std::vector<Node> &nodes, std::vector<uint8_t> &token_only,
             const std::vector<uint64_t> &vreg_base,
             const std::vector<uint64_t> &bram_base,
             const lang::Program &program)
        : nodes_(nodes), tokenOnly_(token_only), vregBase_(vreg_base),
          bramBase_(bram_base), program_(program),
          tabulate_(program.inputTokenWidth <=
                    EvalPlan::kMaxTabulatedWidth),
          exprs_(kInitialSize, kNone), structs_(kInitialSize, kNone)
    {
        // Room for the tables' load limits up front: growing by copies
        // would write every page twice, and in a freshly forked process
        // each page written is a copy-on-write fault. Capacity that is
        // never written costs nothing.
        lowered_.reserve(kInitialSize / 2);
        nodes_.reserve(kInitialSize / 2);
        tokenOnly_.reserve(kInitialSize / 2);
        stack_.reserve(64);
    }

    /** Index of `root`'s node, lowering its cone first; kNone if null. */
    uint32_t
    lower(const lang::Expr &root)
    {
        if (!root)
            return kNone;
        if (!root->a)
            return intern(leaf(*root));
        uint32_t found = find(root.get());
        if (found != kNone)
            return found;
        // Iterative post-order: the stack is always one path of the DAG,
        // so a node is never on it twice (expressions are acyclic). Each
        // frame collects its operands' indices as they resolve.
        stack_.push_back(Frame{root.get()});
        uint32_t done = kNone;
        while (!stack_.empty()) {
            Frame &f = stack_.back();
            if (done != kNone) {
                // The operand just lowered.
                f.ops[operandSlot(*f.node, f.next++)] = done;
                done = kNone;
            }
            const ExprNode *pending = nullptr;
            for (; f.next < 3; ++f.next) {
                const int i = operandSlot(*f.node, f.next);
                const ExprNode *op =
                    unselectedLeg(f, i) ? nullptr : operand(*f.node, i);
                // Leaves skip the walk: their structure is their key.
                const uint32_t index = !op      ? kNone
                                       : !op->a ? intern(leaf(*op))
                                                : find(op);
                if (op && index == kNone) {
                    pending = op;
                    break;
                }
                f.ops[i] = index;
            }
            if (pending) {
                stack_.push_back(Frame{pending});
                continue;
            }
            done = lowerFrame(f);
            map(f.node, done);
            stack_.pop_back();
        }
        return done;
    }

  private:
    static constexpr int kInitialBits = 10;
    static constexpr size_t kInitialSize = size_t(1) << kInitialBits;

    /** A node on the walk's path, with its operands' indices so far. */
    struct Frame
    {
        const ExprNode *node;
        int next = 0; ///< Resolution step (see operandSlot).
        uint32_t ops[3] = {kNone, kNone, kNone};
    };

    /** An expression node and the plan index it lowered to. */
    struct Lowered
    {
        const ExprNode *expr;
        uint32_t index;
    };

    static const ExprNode *
    operand(const ExprNode &n, int i)
    {
        return (i == 0 ? n.a : i == 1 ? n.b : n.c).get();
    }

    /** Operand (a, b, c) resolved at `step`: a mux resolves its
     * selector first, so a constant one can skip the unselected leg. */
    static int
    operandSlot(const ExprNode &n, int step)
    {
        return n.kind == ExprKind::Mux ? (step + 2) % 3 : step;
    }

    bool
    isConst(uint32_t index) const
    {
        return index != kNone && nodes_[index].op == Op::Const;
    }

    /** True if operand `i` of the frame is the leg a constant mux
     * selector does not select. */
    bool
    unselectedLeg(const Frame &f, int i) const
    {
        return f.node->kind == ExprKind::Mux && i != 2 &&
               isConst(f.ops[2]) &&
               (nodes_[f.ops[2]].imm != 0) == (i == 1);
    }

    /** Fibonacci hashing: the product's top bits are the well-mixed
     * ones. */
    static size_t
    slot(uint64_t key, int shift)
    {
        return size_t((key * 0x9e3779b97f4a7c15ull) >> shift);
    }

    size_t
    exprSlot(const ExprNode *n) const
    {
        return slot(uint64_t(reinterpret_cast<uintptr_t>(n)), exprShift_);
    }

    /** Hash of a node's structure. aux is left out: for operators it
     * follows from the opcode and widths, and elsewhere from imm. */
    size_t
    structSlot(const Node &n) const
    {
        const uint64_t head = uint64_t(n.op) | uint64_t(n.aWidth) << 8 |
                              uint64_t(n.bWidth) << 16 |
                              uint64_t(n.a) << 32;
        const uint64_t tail = uint64_t(n.b) | uint64_t(n.c) << 32;
        return slot(((head ^ tail) * 0xff51afd7ed558ccdull ^ tail) + n.imm,
                    structShift_);
    }

    static bool
    sameStructure(const Node &x, const Node &y)
    {
        return x.op == y.op && x.aWidth == y.aWidth &&
               x.bWidth == y.bWidth && x.a == y.a && x.b == y.b &&
               x.c == y.c && x.imm == y.imm && x.aux == y.aux;
    }

    /** Plan index expression `n` lowered to; kNone if not yet. */
    uint32_t
    find(const ExprNode *n) const
    {
        const size_t mask = exprs_.size() - 1;
        for (size_t s = exprSlot(n);; s = (s + 1) & mask) {
            const uint32_t id = exprs_[s];
            if (id == kNone)
                return kNone;
            if (lowered_[id].expr == n)
                return lowered_[id].index;
        }
    }

    void
    insertExpr(uint32_t id)
    {
        const size_t mask = exprs_.size() - 1;
        size_t s = exprSlot(lowered_[id].expr);
        while (exprs_[s] != kNone)
            s = (s + 1) & mask;
        exprs_[s] = id;
    }

    /** Record that expression `n` lowered to plan node `index`. */
    void
    map(const ExprNode *n, uint32_t index)
    {
        const uint32_t id = uint32_t(lowered_.size());
        lowered_.push_back(Lowered{n, index});
        // Keep the table at most half full.
        if (2 * lowered_.size() <= exprs_.size()) {
            insertExpr(id);
            return;
        }
        exprs_.assign(exprs_.size() * 2, kNone);
        --exprShift_;
        lowered_.reserve(exprs_.size() / 2);
        for (uint32_t i = 0; i < lowered_.size(); ++i)
            insertExpr(i);
    }

    /** Plan index of the node structurally equal to `n`, appending
     * `n` if there is none. */
    uint32_t
    intern(const Node &n)
    {
        const size_t mask = structs_.size() - 1;
        size_t s = structSlot(n);
        for (; structs_[s] != kNone; s = (s + 1) & mask)
            if (sameStructure(nodes_[structs_[s]], n))
                return structs_[s];
        const uint32_t index = uint32_t(nodes_.size());
        nodes_.push_back(n);
        tokenOnly_.push_back(tokenOnly(n));
        structs_[s] = index;
        // Keep the table at most half full.
        if (2 * nodes_.size() > structs_.size()) {
            structs_.assign(structs_.size() * 2, kNone);
            --structShift_;
            nodes_.reserve(structs_.size() / 2);
            tokenOnly_.reserve(structs_.size() / 2);
            for (uint32_t i = 0; i < nodes_.size(); ++i) {
                size_t t = structSlot(nodes_[i]);
                while (structs_[t] != kNone)
                    t = (t + 1) & (structs_.size() - 1);
                structs_[t] = i;
            }
        }
        return index;
    }

    /** True if `n` is token-only: the Input, or an operator, slice,
     * concatenation or mux whose operands are token-only or constant
     * (when the plan tabulates). */
    bool
    tokenOnly(const Node &n) const
    {
        if (!tabulate_ || n.op == Op::Input)
            return tabulate_;
        if (n.op == Op::Const || n.op == Op::StreamFinished ||
            n.op == Op::State || n.op == Op::Indexed)
            return false;
        for (const uint32_t i : {n.a, n.b, n.c})
            if (i != kNone && !tokenOnly_[i] && !isConst(i))
                return false;
        return true;
    }

    static Node
    constNode(uint64_t value)
    {
        Node n;
        n.imm = value;
        return n;
    }

    /** Plan node of an expression without operands. */
    static Node
    leaf(const ExprNode &e)
    {
        Node n;
        switch (e.kind) {
          case ExprKind::Input:
            n.op = Op::Input;
            break;
          case ExprKind::StreamFinished:
            n.op = Op::StreamFinished;
            break;
          case ExprKind::RegRead:
            n.op = Op::State;
            n.imm = uint64_t(e.stateId);
            break;
          default:
            n.imm = e.value; // Const
            break;
        }
        return n;
    }

    /** Replace `n` by a constant or a plain state read when its
     * operands allow. Operator semantics come from util/ops.h. */
    void
    fold(Node &n) const
    {
        if (n.op == Op::Indexed) {
            if (!isConst(n.a))
                return;
            const uint64_t index = nodes_[n.a].imm;
            if (index >= n.aux) {
                n = constNode(0); // Out-of-range reads return 0.
                return;
            }
            Node word;
            word.op = Op::State;
            word.imm = n.imm + index;
            n = word;
            return;
        }
        if (!isConst(n.a) || (n.b != kNone && !isConst(n.b)))
            return;
        const uint64_t a = nodes_[n.a].imm;
        const uint64_t b = n.b == kNone ? 0 : nodes_[n.b].imm;
        if (EvalPlan::isBin(n.op))
            n = constNode(evalBinOp(EvalPlan::binOpOf(n.op), a, n.aWidth,
                                    b, n.bWidth));
        else if (EvalPlan::isUn(n.op))
            n = constNode(evalUnOp(EvalPlan::unOpOf(n.op), a, n.aWidth));
        else if (n.op == Op::Slice)
            n = constNode((a >> n.imm) & n.aux);
        else if (n.op == Op::Concat)
            n = constNode((a << n.bWidth) | b);
    }

    /** Lower the node of a frame whose operands are all lowered;
     * returns its plan index. (Leaves never get a frame.) */
    uint32_t
    lowerFrame(const Frame &f)
    {
        const ExprNode &e = *f.node;
        Node n;
        n.a = f.ops[0];
        n.b = f.ops[1];
        n.c = f.ops[2];
        switch (e.kind) {
          case ExprKind::Const:
          case ExprKind::Input:
          case ExprKind::StreamFinished:
          case ExprKind::RegRead:
            return intern(leaf(e));
          case ExprKind::VecRegRead:
            n.op = Op::Indexed;
            n.imm = vregBase_[e.stateId];
            n.aux = uint64_t(program_.vreg(e.stateId).elements);
            break;
          case ExprKind::BramRead:
            n.op = Op::Indexed;
            n.imm = bramBase_[e.stateId];
            n.aux = uint64_t(program_.bram(e.stateId).elements);
            break;
          case ExprKind::Bin:
            n.op = EvalPlan::binCode(e.binOp);
            n.aWidth = uint8_t(e.a->width);
            n.bWidth = uint8_t(e.b->width);
            n.aux = mask64(binOpWidth(e.binOp, e.a->width, e.b->width));
            break;
          case ExprKind::Un:
            n.op = EvalPlan::unCode(e.unOp);
            n.aWidth = uint8_t(e.a->width);
            n.aux = mask64(unOpWidth(e.unOp, e.a->width));
            break;
          case ExprKind::Mux:
            // The selected leg, when the selector is constant (the
            // other one was never lowered) or both legs are one node.
            if (isConst(n.c))
                return nodes_[n.c].imm != 0 ? n.a : n.b;
            if (n.a == n.b)
                return n.a;
            n.op = Op::Mux;
            break;
          case ExprKind::Slice:
            n.op = Op::Slice;
            n.imm = uint64_t(e.sliceLo);
            n.aux = mask64(e.width);
            break;
          case ExprKind::Concat:
            n.op = Op::Concat;
            n.bWidth = uint8_t(e.b->width);
            break;
        }
        fold(n);
        return intern(n);
    }

    std::vector<Node> &nodes_;
    std::vector<uint8_t> &tokenOnly_;
    const std::vector<uint64_t> &vregBase_;
    const std::vector<uint64_t> &bramBase_;
    const lang::Program &program_;
    const bool tabulate_;
    /** By expression id: the expression node and its plan index. */
    std::vector<Lowered> lowered_;
    /** Open-addressed expression ids (kNone: empty). */
    std::vector<uint32_t> exprs_;
    /** Open-addressed plan indices by structure (kNone: empty). */
    std::vector<uint32_t> structs_;
    int exprShift_ = 64 - kInitialBits;   ///< 64 - log2(exprs_.size()).
    int structShift_ = 64 - kInitialBits; ///< 64 - log2(structs_.size()).
    std::vector<Frame> stack_;
};

/**
 * Lowers the statement tree into the plan's walk (see plan.h), and
 * each expression it meets through the Lowering. It tracks which nodes
 * the steps emitted so far are sure to have computed at the current
 * point: those a condition's cone leaves out.
 */
class WalkBuilder
{
  public:
    WalkBuilder(EvalPlan &plan, Lowering &lowering,
                const std::vector<uint64_t> &vreg_base,
                const std::vector<uint64_t> &bram_base)
        : plan_(plan), lowering_(lowering), vregBase_(vreg_base),
          bramBase_(bram_base)
    {
        // Room up front, as in Lowering, so the scratch is allocated
        // once instead of grown by copies.
        avail_.reserve(plan.nodes.capacity());
        availLog_.reserve(kScratch);
        stack_.reserve(kScratch);
        runRoots_.reserve(kScratch);
        exits_.reserve(kScratch);
        plan.cones.reserve(kScratch);
    }

    void
    lowerBody(const lang::Block &body)
    {
        // After the last statement that holds a loop, nothing can enter
        // one: a loop cycle ends there.
        size_t last_loop = body.size();
        for (size_t i = 0; i < body.size(); ++i)
            if (holdsWhile(*body[i]))
                last_loop = i;
        for (size_t i = 0; i < body.size(); ++i) {
            statement(*body[i], false);
            if (i == last_loop && i + 1 < body.size())
                control(Step::Kind::LoopExit);
        }
        closeRun();
        // A branch to a jump goes where the jump goes: a nested arm's
        // exit skips the jumps of the arms around it.
        std::vector<Step> &walk = plan_.walk;
        for (Step &step : walk) {
            if (step.kind != Step::Kind::Test &&
                step.kind != Step::Kind::While &&
                step.kind != Step::Kind::Jump)
                continue;
            while (step.target < walk.size() &&
                   walk[step.target].kind == Step::Kind::Jump)
                step.target = walk[step.target].target;
        }
    }

  private:
    using Step = EvalPlan::Step;

    static constexpr size_t kScratch = 256;

    static bool
    holdsWhile(const lang::Stmt &stmt)
    {
        if (std::holds_alternative<lang::WhileStmt>(stmt.node))
            return true;
        const auto *if_stmt = std::get_if<lang::IfStmt>(&stmt.node);
        if (!if_stmt)
            return false;
        auto any = [](const lang::Block &block) {
            for (const auto &s : block)
                if (holdsWhile(*s))
                    return true;
            return false;
        };
        for (const auto &arm : if_stmt->arms)
            if (any(arm.second))
                return true;
        return any(if_stmt->elseBlock);
    }

    void
    block(const lang::Block &stmts, bool inside_while)
    {
        for (const auto &stmt : stmts)
            statement(*stmt, inside_while);
        closeRun();
    }

    void
    statement(const lang::Stmt &stmt, bool inside_while)
    {
        if (const auto *assign = std::get_if<lang::AssignStmt>(&stmt.node)) {
            EvalPlan::Assign a;
            a.kind = assign->target.kind;
            a.stateId = assign->target.stateId;
            a.index = lowering_.lower(assign->target.index);
            a.value = lowering_.lower(assign->value);
            switch (a.kind) {
              case lang::LValue::Kind::Reg:
                a.base = uint64_t(a.stateId);
                a.elements = 1;
                a.width = plan_.program.reg(a.stateId).width;
                break;
              case lang::LValue::Kind::VecElem:
                a.base = vregBase_[a.stateId];
                a.elements =
                    uint64_t(plan_.program.vreg(a.stateId).elements);
                a.width = plan_.program.vreg(a.stateId).width;
                break;
              case lang::LValue::Kind::BramElem:
                a.base = bramBase_[a.stateId];
                a.elements =
                    uint64_t(plan_.program.bram(a.stateId).elements);
                a.width = plan_.program.bram(a.stateId).width;
                break;
            }
            actions(inside_while).assigns.end++;
            plan_.assigns.push_back(a);
            runRoots_.push_back(a.index);
            runRoots_.push_back(a.value);
            reads(assign->value, inside_while);
            reads(assign->target.index, inside_while);
        } else if (const auto *emit =
                       std::get_if<lang::EmitStmt>(&stmt.node)) {
            actions(inside_while).emits.end++;
            plan_.emits.push_back(
                EvalPlan::Emit{lowering_.lower(emit->value)});
            runRoots_.push_back(plan_.emits.back().value);
            reads(emit->value, inside_while);
        } else if (const auto *if_stmt =
                       std::get_if<lang::IfStmt>(&stmt.node)) {
            ifChain(*if_stmt, inside_while);
        } else if (const auto *wh =
                       std::get_if<lang::WhileStmt>(&stmt.node)) {
            if (inside_while)
                panic("EvalPlan: nested while survived builder checks");
            reads(wh->cond, inside_while);
            const uint32_t test = condition(Step::Kind::While, wh->cond);
            sawWhile_ = true;
            // The condition stays computed after the loop: every cycle
            // that reaches the loop tests it.
            const size_t after_test = availLog_.size();
            block(wh->body, true);
            forget(after_test);
            plan_.walk[test].target = label();
        } else {
            panic("EvalPlan: unknown statement kind");
        }
    }

    void
    ifChain(const lang::IfStmt &if_stmt, bool inside_while)
    {
        // One Test per arm in priority order, each going to the next
        // arm when false; a taken arm's body jumps past the rest (its
        // jump waits on exits_, above those of the enclosing chains).
        // An arm's test runs only when every earlier one did, so their
        // cones stay computed for it.
        const size_t first_exit = exits_.size();
        size_t after_first = availLog_.size();
        uint32_t test = kNone;
        for (const auto &[cond, body] : if_stmt.arms) {
            if (test != kNone) {
                exits_.push_back(control(Step::Kind::Jump));
                plan_.walk[test].target = label();
            }
            reads(cond, inside_while);
            test = condition(Step::Kind::Test, cond);
            const size_t after_test = availLog_.size();
            if (exits_.size() == first_exit)
                after_first = after_test;
            block(body, inside_while);
            forget(after_test);
        }
        if (!if_stmt.elseBlock.empty()) {
            if (test != kNone) {
                exits_.push_back(control(Step::Kind::Jump));
                plan_.walk[test].target = label();
            }
            block(if_stmt.elseBlock, inside_while);
        } else if (test != kNone) {
            plan_.walk[test].target = label();
        }
        const uint32_t end = label();
        for (size_t k = first_exit; k < exits_.size(); ++k)
            plan_.walk[exits_[k]].target = end;
        exits_.resize(first_exit);
        // Of the chain, only the first arm's test runs in every cycle
        // that reaches the statement.
        forget(after_first);
    }

    /** Emit a Test or While step for `cond`; returns its index. */
    uint32_t
    condition(Step::Kind kind, const lang::Expr &cond)
    {
        closeRun();
        Step step;
        step.kind = kind;
        step.cond = lowering_.lower(cond);
        stack_.push_back(step.cond);
        cone(step);
        plan_.walk.push_back(step);
        return uint32_t(plan_.walk.size() - 1);
    }

    /**
     * Give `step` the cone of the roots on stack_: the nodes reached
     * through everything but mux legs, less constants, token-only nodes
     * and those already computed, in topological order. They are marked
     * computed.
     */
    void
    cone(Step &step)
    {
        avail_.resize(plan_.nodes.size(), 0);
        step.coneBegin = uint32_t(plan_.cones.size());
        // Depth first, stopping at the nodes already computed; a node
        // is marked when first reached, so it is visited once.
        while (!stack_.empty()) {
            const uint32_t i = stack_.back();
            stack_.pop_back();
            if (i == kNone || avail_[i] || plan_.nodes[i].op == Op::Const ||
                plan_.tokenOnly[i])
                continue;
            avail_[i] = 1;
            availLog_.push_back(i);
            plan_.cones.push_back(i);
            const Node &n = plan_.nodes[i];
            stack_.push_back(n.c);
            if (n.op != Op::Mux) {
                stack_.push_back(n.a);
                stack_.push_back(n.b);
            }
        }
        // Node order is topological (operands first), and evaluating
        // in it walks the memo forwards.
        const auto begin = plan_.cones.begin() + step.coneBegin;
        std::sort(begin, plan_.cones.end());
        step.coneEnd = uint32_t(plan_.cones.size());
    }

    /**
     * End the open Actions step: give it the cone of its actions'
     * values, indices, addresses and read gates. A cycle that reaches
     * the step computes it unless the step is out of loop and the cycle
     * is a loop cycle, which no cycle before the first While is.
     */
    void
    closeRun()
    {
        if (!run_)
            return;
        run_ = false;
        const size_t before = availLog_.size();
        stack_.swap(runRoots_);
        cone(plan_.walk.back());
        runRoots_.clear();
        if (plan_.walk.back().kind == Step::Kind::Actions && sawWhile_)
            forget(before);
    }

    /** Emit a control step; returns its index. */
    uint32_t
    control(Step::Kind kind)
    {
        closeRun();
        Step step;
        step.kind = kind;
        plan_.walk.push_back(step);
        return uint32_t(plan_.walk.size() - 1);
    }

    /** The index of the next step, as a jump target. */
    uint32_t
    label()
    {
        closeRun();
        return uint32_t(plan_.walk.size());
    }

    /** The Actions step the next action joins: the last step, if it
     * is one of this class and no jump lands after it. */
    Step &
    actions(bool inside_while)
    {
        const Step::Kind kind =
            inside_while ? Step::Kind::LoopActions : Step::Kind::Actions;
        if (!run_ || plan_.walk.back().kind != kind) {
            closeRun();
            Step step;
            step.kind = kind;
            step.reads.begin = step.reads.end =
                uint32_t(plan_.bramReads.size());
            step.assigns.begin = step.assigns.end =
                uint32_t(plan_.assigns.size());
            step.emits.begin = step.emits.end =
                uint32_t(plan_.emits.size());
            plan_.walk.push_back(step);
            run_ = true;
        }
        return plan_.walk.back();
    }

    void
    reads(const lang::Expr &e, bool inside_while)
    {
        if (!e || !lang::containsBramRead(e))
            return;
        // The occurrences stay in occs_ until the walk is built: the
        // Lowering knows expressions by address, so a gate freed here
        // could come back at that address as another read's gate.
        const size_t first = occs_.size();
        lang::collectBramReads(e, nullptr, inside_while, occs_);
        for (size_t k = first; k < occs_.size(); ++k) {
            const lang::BramReadOcc &occ = occs_[k];
            actions(inside_while).reads.end++;
            plan_.bramReads.push_back(EvalPlan::BramRead{
                lowering_.lower(occ.cond), occ.bramId,
                lowering_.lower(occ.addr)});
            // A gated read's address waits for its gate.
            const EvalPlan::BramRead &read = plan_.bramReads.back();
            runRoots_.push_back(read.gate != kNone ? read.gate
                                                   : read.addr);
        }
    }

    /** Drop the computed marks made since the log was `size` long. */
    void
    forget(size_t size)
    {
        while (availLog_.size() > size) {
            avail_[availLog_.back()] = 0;
            availLog_.pop_back();
        }
    }

    EvalPlan &plan_;
    Lowering &lowering_;
    const std::vector<uint64_t> &vregBase_;
    const std::vector<uint64_t> &bramBase_;
    /** Per node: computed on every path to the current point. */
    std::vector<uint8_t> avail_;
    /** Nodes marked in avail_, in marking order (undone by forget). */
    std::vector<uint32_t> availLog_;
    std::vector<uint32_t> stack_;
    /** Every read occurrence met so far; they own its gates. */
    std::vector<lang::BramReadOcc> occs_;
    /** True while the last step is an Actions step actions may join. */
    bool run_ = false;
    /** The open Actions step's roots (see closeRun). */
    std::vector<uint32_t> runRoots_;
    /** Exit jumps of the `if` chains being lowered, innermost last. */
    std::vector<uint32_t> exits_;
    /** True once a While step is emitted. */
    bool sawWhile_ = false;
};

} // namespace

EvalPlan::EvalPlan(lang::Program prog) : program(std::move(prog))
{
    // Flat state layout: registers, then vector registers, then BRAMs.
    size_t words = program.regs.size();
    for (const auto &vreg : program.vregs)
        words += size_t(vreg.elements);
    for (const auto &bram : program.brams)
        words += size_t(bram.elements);
    initState.reserve(words);
    for (const auto &reg : program.regs)
        initState.push_back(reg.init);
    std::vector<uint64_t> vreg_base, bram_base;
    for (const auto &vreg : program.vregs) {
        vreg_base.push_back(initState.size());
        initState.insert(initState.end(), size_t(vreg.elements), vreg.init);
    }
    for (const auto &bram : program.brams) {
        bram_base.push_back(initState.size());
        initState.insert(initState.end(), size_t(bram.elements), 0);
    }

    Lowering lowering(nodes, tokenOnly, vreg_base, bram_base, program);
    WalkBuilder(*this, lowering, vreg_base, bram_base)
        .lowerBody(program.body);
    tokens = tabulate(*this);
}

namespace {

/** What a token-only node reads at token t: the token, and each
 * operand's value from its column. */
struct ColumnIn
{
    const uint64_t *const *column;
    uint64_t t;

    uint64_t token() const { return t; }
    // A token-only node reads no stream flag and no state.
    uint64_t finished() const { return 0; }
    uint64_t state(uint64_t) const { return 0; }
    uint64_t operand(uint32_t i) const { return column[i][t]; }
    uint64_t leg(uint32_t i) const { return operand(i); }
};

} // namespace

EvalPlan::TokenTable
tabulate(const EvalPlan &plan)
{
    EvalPlan::TokenTable table;
    const std::vector<Node> &nodes = plan.nodes;
    const std::vector<uint8_t> &token_only = plan.tokenOnly;
    const size_t tabulated =
        size_t(std::count(token_only.begin(), token_only.end(), 1));
    if (tabulated == 0)
        return table;

    // The frontier: token-only operands of the other nodes, and
    // token-only roots of steps and actions.
    std::vector<uint8_t> read(nodes.size(), 0);
    auto reads = [&](uint32_t i) {
        if (i != kNone && token_only[i])
            read[i] = 1;
    };
    for (size_t i = 0; i < nodes.size(); ++i) {
        if (!token_only[i]) {
            reads(nodes[i].a);
            reads(nodes[i].b);
            reads(nodes[i].c);
        }
    }
    for (const EvalPlan::Step &step : plan.walk)
        reads(step.cond);
    for (const EvalPlan::Assign &assign : plan.assigns) {
        reads(assign.index);
        reads(assign.value);
    }
    for (const EvalPlan::Emit &emit : plan.emits)
        reads(emit.value);
    for (const EvalPlan::BramRead &occ : plan.bramReads) {
        reads(occ.gate);
        reads(occ.addr);
    }
    for (size_t i = 0; i < nodes.size(); ++i)
        if (read[i])
            table.frontier.push_back(uint32_t(i));

    // One column of 2^w values per token-only node and per constant one
    // reads (its other operands), in node (topological) order: a
    // constant's repeats its value, a token-only node's is one loop of
    // its opcode's apply().
    const uint64_t rows = uint64_t(1) << plan.program.inputTokenWidth;
    std::vector<uint8_t> has_column = token_only;
    for (size_t i = 0; i < nodes.size(); ++i)
        if (token_only[i])
            for (const uint32_t o : {nodes[i].a, nodes[i].b, nodes[i].c})
                if (o != kNone)
                    has_column[o] = 1;
    const size_t columns =
        size_t(std::count(has_column.begin(), has_column.end(), 1));
    std::unique_ptr<uint64_t[]> storage(new uint64_t[columns * rows]);
    std::vector<const uint64_t *> column(nodes.size(), nullptr);
    uint64_t *next = storage.get();
    for (size_t i = 0; i < nodes.size(); ++i) {
        if (!has_column[i])
            continue;
        const Node &n = nodes[i];
        if (token_only[i]) {
            EvalPlan::dispatch(n.op, [&](auto op) {
                ColumnIn in{column.data(), 0};
                for (; in.t < rows; ++in.t)
                    next[in.t] = EvalPlan::apply<op.value>(n, in);
            });
        } else {
            std::fill(next, next + rows, n.imm);
        }
        column[i] = next;
        next += rows;
    }

    const size_t width = table.frontier.size();
    table.rows.resize(rows * width);
    for (size_t k = 0; k < width; ++k) {
        const uint64_t *values = column[table.frontier[k]];
        for (uint64_t t = 0; t < rows; ++t)
            table.rows[t * width + k] = values[t];
    }
    return table;
}

} // namespace sim
} // namespace fleet
