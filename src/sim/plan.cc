#include "sim/plan.h"

#include <algorithm>

#include "lang/flatten.h"
#include "util/bits.h"

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
 * index in a side vector), and plan nodes by structure.
 */
class Lowering
{
  public:
    Lowering(std::vector<Node> &nodes,
             const std::vector<uint64_t> &vreg_base,
             const std::vector<uint64_t> &bram_base,
             const lang::Program &program)
        : nodes_(nodes), vregBase_(vreg_base), bramBase_(bram_base),
          program_(program), exprs_(kInitialSize, kNone),
          structs_(kInitialSize, kNone)
    {
        // Room for the tables' load limits up front: growing by copies
        // would write every page twice, and in a freshly forked process
        // each page written is a copy-on-write fault. Capacity that is
        // never written costs nothing.
        lowered_.reserve(kInitialSize / 2);
        nodes_.reserve(kInitialSize / 2);
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
        structs_[s] = index;
        // Keep the table at most half full.
        if (2 * nodes_.size() > structs_.size()) {
            structs_.assign(structs_.size() * 2, kNone);
            --structShift_;
            nodes_.reserve(structs_.size() / 2);
            for (uint32_t i = 0; i < nodes_.size(); ++i) {
                size_t t = structSlot(nodes_[i]);
                while (structs_[t] != kNone)
                    t = (t + 1) & (structs_.size() - 1);
                structs_[t] = i;
            }
        }
        return index;
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
    const std::vector<uint64_t> &vregBase_;
    const std::vector<uint64_t> &bramBase_;
    const lang::Program &program_;
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

    const lang::FlatProgram flat = lang::flatten(program);
    Lowering lowering(nodes, vreg_base, bram_base, program);
    whileConds.reserve(flat.whileConds.size());
    bramReads.reserve(flat.bramReads.size());
    assigns.reserve(flat.assigns.size());
    emits.reserve(flat.emits.size());
    for (const auto &cond : flat.whileConds)
        whileConds.push_back(lowering.lower(cond));
    for (const auto &occ : flat.bramReads) {
        bramReads.push_back(BramRead{
            Gate{lowering.lower(occ.cond), occ.insideWhile}, occ.bramId,
            lowering.lower(occ.addr)});
    }
    for (const auto &assign : flat.assigns) {
        Assign a;
        a.gate = Gate{lowering.lower(assign.cond), assign.insideWhile};
        a.kind = assign.target.kind;
        a.stateId = assign.target.stateId;
        a.index = lowering.lower(assign.target.index);
        a.value = lowering.lower(assign.value);
        switch (a.kind) {
          case lang::LValue::Kind::Reg:
            a.base = uint64_t(a.stateId);
            a.elements = 1;
            a.width = program.reg(a.stateId).width;
            break;
          case lang::LValue::Kind::VecElem:
            a.base = vreg_base[a.stateId];
            a.elements = uint64_t(program.vreg(a.stateId).elements);
            a.width = program.vreg(a.stateId).width;
            break;
          case lang::LValue::Kind::BramElem:
            a.base = bram_base[a.stateId];
            a.elements = uint64_t(program.bram(a.stateId).elements);
            a.width = program.bram(a.stateId).width;
            break;
        }
        assigns.push_back(a);
    }
    for (const auto &emit : flat.emits) {
        emits.push_back(Emit{Gate{lowering.lower(emit.cond),
                                  emit.insideWhile},
                             lowering.lower(emit.value)});
    }

    // Eager cones: every operand of a marked node except mux legs (a
    // mux evaluates its selected leg on demand). Cycles with an active
    // while loop skip out-of-loop gates, so their cone is a separate
    // list; a node in both cones belongs to the always-eager one. Users
    // follow their operands in the node order, so one backward sweep
    // propagates the marks.
    enum : uint8_t { kLazy, kOutsideWhile, kEager };
    std::vector<uint8_t> mark(nodes.size(), kLazy);
    auto markRoot = [&](const Gate &gate) {
        if (gate.cond != kNone) {
            uint8_t m = gate.insideWhile ? kEager : kOutsideWhile;
            mark[gate.cond] = std::max(mark[gate.cond], m);
        }
    };
    for (uint32_t cond : whileConds)
        markRoot(Gate{cond, true});
    for (const auto &occ : bramReads)
        markRoot(occ.gate);
    for (const auto &assign : assigns)
        markRoot(assign.gate);
    for (const auto &emit : emits)
        markRoot(emit.gate);
    for (size_t i = nodes.size(); i-- > 0;) {
        const uint8_t m = mark[i];
        if (m == kLazy)
            continue;
        const Node &n = nodes[i];
        const bool mux = n.op == Op::Mux;
        for (uint32_t op : {n.c, mux ? kNone : n.a, mux ? kNone : n.b})
            if (op != kNone)
                mark[op] = std::max(mark[op], m);
    }
    size_t counts[3] = {0, 0, 0};
    for (uint32_t i = 0; i < nodes.size(); ++i)
        counts[mark[i]] += nodes[i].op != Op::Const;
    eager.reserve(counts[kEager]);
    eagerOutsideWhile.reserve(counts[kOutsideWhile]);
    for (uint32_t i = 0; i < nodes.size(); ++i) {
        if (nodes[i].op == Op::Const)
            continue; // Constants never change; see FunctionalSimulator.
        if (mark[i] == kEager)
            eager.push_back(i);
        else if (mark[i] == kOutsideWhile)
            eagerOutsideWhile.push_back(i);
    }
}

} // namespace sim
} // namespace fleet
