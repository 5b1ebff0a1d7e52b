#include "sim/plan.h"

#include <algorithm>

#include "lang/flatten.h"
#include "util/bits.h"

namespace fleet {
namespace sim {

using lang::ExprKind;
using lang::ExprNode;

namespace {

/**
 * Lowers expression DAGs into the plan's node array. Expressions share
 * subtrees heavily, so the walk must visit each distinct node once; the
 * node -> index table for that is open-addressed over one power-of-two
 * array of plan indices (a handful of allocations per plan, none per
 * node).
 */
class Lowering
{
  public:
    Lowering(std::vector<EvalPlan::Node> &nodes,
             const std::vector<uint64_t> &vreg_base,
             const std::vector<uint64_t> &bram_base,
             const lang::Program &program)
        : nodes_(nodes), vregBase_(vreg_base), bramBase_(bram_base),
          program_(program), table_(size_t(1) << kInitialBits,
                                    EvalPlan::kNone)
    {
        // Room for the table's load limit up front: growing by copies
        // would write every page twice, and in a freshly forked process
        // each page written is a copy-on-write fault. Capacity that is
        // never written costs nothing.
        nodes_.reserve(table_.size() / 2);
        ptrs_.reserve(table_.size() / 2);
        stack_.reserve(64);
    }

    /** Index of `root`'s node, lowering its cone first; kNone if null. */
    uint32_t
    lower(const lang::Expr &root)
    {
        if (!root)
            return EvalPlan::kNone;
        uint32_t found = find(root.get());
        if (found != EvalPlan::kNone)
            return found;
        // Iterative post-order: the stack is always one path of the DAG,
        // so a node is never on it twice (expressions are acyclic). Each
        // frame collects its operands' indices as they resolve.
        stack_.push_back(Frame{root.get()});
        uint32_t done = EvalPlan::kNone;
        while (!stack_.empty()) {
            Frame &f = stack_.back();
            if (done != EvalPlan::kNone) {
                f.ops[f.next++] = done; // The operand just lowered.
                done = EvalPlan::kNone;
            }
            const ExprNode *pending = nullptr;
            for (; f.next < 3; ++f.next) {
                const ExprNode *op = operand(*f.node, f.next);
                uint32_t index = op ? find(op) : EvalPlan::kNone;
                if (op && index == EvalPlan::kNone) {
                    pending = op;
                    break;
                }
                f.ops[f.next] = index;
            }
            if (pending) {
                stack_.push_back(Frame{pending});
                continue;
            }
            done = append(f);
            stack_.pop_back();
        }
        return done;
    }

  private:
    static constexpr int kInitialBits = 10;

    /** A node on the walk's path, with its operands' indices so far. */
    struct Frame
    {
        const ExprNode *node;
        int next = 0; ///< Operand (a, b, c) to resolve next.
        uint32_t ops[3] = {EvalPlan::kNone, EvalPlan::kNone,
                           EvalPlan::kNone};
    };

    static const ExprNode *
    operand(const ExprNode &n, int i)
    {
        return (i == 0 ? n.a : i == 1 ? n.b : n.c).get();
    }

    /** Fibonacci hashing: the product's top bits are the well-mixed
     * ones. */
    size_t
    slot(const ExprNode *n) const
    {
        uint64_t x = uint64_t(reinterpret_cast<uintptr_t>(n));
        return size_t((x * 0x9e3779b97f4a7c15ull) >> shift_);
    }

    uint32_t
    find(const ExprNode *n) const
    {
        const size_t mask = table_.size() - 1;
        for (size_t s = slot(n);; s = (s + 1) & mask) {
            uint32_t index = table_[s];
            if (index == EvalPlan::kNone || ptrs_[index] == n)
                return index;
        }
    }

    void
    insert(uint32_t index)
    {
        const size_t mask = table_.size() - 1;
        size_t s = slot(ptrs_[index]);
        while (table_[s] != EvalPlan::kNone)
            s = (s + 1) & mask;
        table_[s] = index;
    }

    /** Append the node of a frame whose operands are all lowered;
     * returns its index. */
    uint32_t
    append(const Frame &f)
    {
        const ExprNode &e = *f.node;
        EvalPlan::Node n;
        n.kind = e.kind;
        n.a = f.ops[0];
        n.b = f.ops[1];
        n.c = f.ops[2];
        switch (e.kind) {
          case ExprKind::Const:
            n.imm = e.value;
            break;
          case ExprKind::Input:
          case ExprKind::StreamFinished:
          case ExprKind::Mux:
            break;
          case ExprKind::RegRead:
            n.imm = uint64_t(e.stateId);
            break;
          case ExprKind::VecRegRead:
            n.imm = vregBase_[e.stateId];
            n.aux = uint64_t(program_.vreg(e.stateId).elements);
            break;
          case ExprKind::BramRead:
            n.imm = bramBase_[e.stateId];
            n.aux = uint64_t(program_.bram(e.stateId).elements);
            break;
          case ExprKind::Bin:
            n.op = uint8_t(e.binOp);
            n.aWidth = uint8_t(e.a->width);
            n.bWidth = uint8_t(e.b->width);
            break;
          case ExprKind::Un:
            n.op = uint8_t(e.unOp);
            n.aWidth = uint8_t(e.a->width);
            break;
          case ExprKind::Slice:
            n.imm = uint64_t(e.sliceLo);
            n.aux = mask64(e.width);
            break;
          case ExprKind::Concat:
            n.bWidth = uint8_t(e.b->width);
            break;
        }
        const uint32_t index = uint32_t(nodes_.size());
        nodes_.push_back(n);
        ptrs_.push_back(&e);
        // Keep the table at most half full.
        if (2 * ptrs_.size() > table_.size()) {
            table_.assign(table_.size() * 2, EvalPlan::kNone);
            --shift_;
            nodes_.reserve(table_.size() / 2);
            ptrs_.reserve(table_.size() / 2);
            for (uint32_t i = 0; i < ptrs_.size(); ++i)
                insert(i);
        } else {
            insert(index);
        }
        return index;
    }

    std::vector<EvalPlan::Node> &nodes_;
    const std::vector<uint64_t> &vregBase_;
    const std::vector<uint64_t> &bramBase_;
    const lang::Program &program_;
    /** Plan index -> expression node. */
    std::vector<const ExprNode *> ptrs_;
    /** Open-addressed plan indices (kNone: empty). */
    std::vector<uint32_t> table_;
    int shift_ = 64 - kInitialBits; ///< 64 - log2(table_.size()).
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
        for (uint32_t op : {n.c, n.kind == ExprKind::Mux ? kNone : n.a,
                            n.kind == ExprKind::Mux ? kNone : n.b})
            if (op != kNone)
                mark[op] = std::max(mark[op], m);
    }
    for (uint32_t i = 0; i < nodes.size(); ++i) {
        if (nodes[i].kind == ExprKind::Const)
            continue; // Constants never change; see FunctionalSimulator.
        if (mark[i] == kEager)
            eager.push_back(i);
        else if (mark[i] == kOutsideWhile)
            eagerOutsideWhile.push_back(i);
    }
}

} // namespace sim
} // namespace fleet
