#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "rtl/batch_sim.h"
#include "rtl/circuit.h"
#include "rtl/opt.h"
#include "rtl/sim.h"
#include "rtl/tape.h"
#include "util/rng.h"

/**
 * Optimizer purity and engine-equivalence tests on randomized circuits
 * (ISSUE 4). The optimizer (rtl/opt.h) may only rewrite a circuit into
 * one with identical observable behaviour: every output, register, and
 * BRAM word must match the unoptimized interpreter cycle for cycle. The
 * same random circuits double as an equivalence suite for the tape
 * lowering and the batched evaluator, independent of the compiler
 * front end feeding them processing-unit circuits.
 */

namespace fleet {
namespace {

using rtl::BatchSimulator;
using rtl::Circuit;
using rtl::NodeId;
using rtl::OptResult;
using rtl::Simulator;
using rtl::TapeProgram;

/** Random well-formed circuit: a node soup over a few inputs, registers,
 * and BRAMs, with constants mixed in to give the folder something to do,
 * plus deliberately unreferenced nodes for DCE to remove. */
Circuit
randomCircuit(uint64_t seed)
{
    Rng rng(seed);
    Circuit c("rand" + std::to_string(seed));

    struct Pool
    {
        std::vector<NodeId> nodes;
        const Circuit &c;
        Rng &rng;
        NodeId any() { return nodes[rng.nextBelow(nodes.size())]; }
        int width(NodeId n) { return c.width(n); }
    };
    Pool pool{{}, c, rng};

    int num_inputs = 1 + static_cast<int>(rng.nextBelow(3));
    for (int i = 0; i < num_inputs; ++i) {
        int w = 1 + static_cast<int>(rng.nextBelow(24));
        pool.nodes.push_back(c.addInput("in" + std::to_string(i), w));
    }
    int num_regs = 1 + static_cast<int>(rng.nextBelow(3));
    for (int i = 0; i < num_regs; ++i) {
        int w = 1 + static_cast<int>(rng.nextBelow(16));
        std::string name = std::string("r").append(std::to_string(i));
        int r = c.addReg(name, w, rng.next() & mask64(w));
        pool.nodes.push_back(c.regOut(r));
    }
    int num_brams = static_cast<int>(rng.nextBelow(3));
    for (int i = 0; i < num_brams; ++i) {
        int elements = 4 << rng.nextBelow(3);
        std::string name = std::string("m").append(std::to_string(i));
        int b = c.addBram(name, elements,
                          4 + static_cast<int>(rng.nextBelow(8)));
        pool.nodes.push_back(c.bramRdData(b));
    }

    int num_ops = 24 + static_cast<int>(rng.nextBelow(40));
    for (int i = 0; i < num_ops; ++i) {
        // A third of operands are constants (often 0/1/all-ones) so the
        // identity/absorption rules actually fire.
        auto operand = [&]() -> NodeId {
            if (rng.nextChance(1, 3)) {
                int w = 1 + static_cast<int>(rng.nextBelow(16));
                uint64_t v;
                switch (rng.nextBelow(4)) {
                  case 0: v = 0; break;
                  case 1: v = 1; break;
                  case 2: v = mask64(w); break;
                  default: v = rng.next() & mask64(w); break;
                }
                return c.makeConst(v, w);
            }
            return pool.any();
        };
        NodeId a = operand();
        NodeId n;
        switch (rng.nextBelow(8)) {
          case 0:
          case 1:
          case 2: {
            static const BinOp kOps[] = {
                BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::And,
                BinOp::Or,  BinOp::Xor, BinOp::Shl, BinOp::Shr,
                BinOp::Eq,  BinOp::Ne,  BinOp::Ult, BinOp::Ule,
                BinOp::Ugt, BinOp::Uge, BinOp::Slt, BinOp::Sle,
                BinOp::Sgt, BinOp::Sge, BinOp::LAnd, BinOp::LOr,
            };
            n = c.makeBin(kOps[rng.nextBelow(std::size(kOps))], a,
                          operand());
            break;
          }
          case 3:
            n = c.makeUn(rng.nextChance(1, 3)
                             ? UnOp::Neg
                             : (rng.nextChance(1, 2) ? UnOp::Not
                                                     : UnOp::LNot),
                         a);
            break;
          case 4:
            n = c.makeMux(operand(), a, operand());
            break;
          case 5: {
            int w = pool.width(a);
            int lo = static_cast<int>(rng.nextBelow(w));
            int hi = lo + static_cast<int>(rng.nextBelow(w - lo));
            n = c.makeSlice(a, hi, lo);
            break;
          }
          case 6: {
            NodeId b = operand();
            if (pool.width(a) + pool.width(b) <= 64)
                n = c.makeConcat(a, b);
            else
                n = c.makeResize(a, 8);
            break;
          }
          default:
            n = c.makeResize(a, 1 + static_cast<int>(rng.nextBelow(32)));
            break;
        }
        pool.nodes.push_back(n);
    }

    for (int i = 0; i < num_regs; ++i) {
        NodeId next = c.makeResize(pool.any(), c.regs()[i].width);
        NodeId enable =
            rng.nextChance(1, 2) ? rtl::kNoNode : c.makeResize(pool.any(), 1);
        c.setRegNext(i, next, enable);
    }
    for (int i = 0; i < num_brams; ++i) {
        const auto &b = c.brams()[i];
        c.setBramPorts(i, c.makeResize(pool.any(), b.addrWidth),
                       c.makeResize(pool.any(), 1),
                       c.makeResize(pool.any(), b.addrWidth),
                       c.makeResize(pool.any(), b.width));
    }
    int num_outputs = 2 + static_cast<int>(rng.nextBelow(4));
    for (int i = 0; i < num_outputs; ++i)
        c.addOutput("out" + std::to_string(i), pool.any());

    c.validate();
    return c;
}

/**
 * A one-lane BatchSimulator behind the scalar Simulator interface, so
 * lockstep() drives the tape through the batched sweep production runs
 * (evalAll/step), the path single-PU testbenches use too.
 */
class OneLaneBatch
{
  public:
    explicit OneLaneBatch(TapeProgram tape)
        : sim_(std::make_shared<const TapeProgram>(std::move(tape)), 1)
    {
    }

    void reset() { sim_.reset(); }
    void setInput(int port, uint64_t v) { sim_.setInput(0, port, v); }
    void evalComb() { sim_.evalAll(); }
    uint64_t value(NodeId node) const { return sim_.value(0, node); }
    void step() { sim_.step(); }
    uint64_t regValue(int reg) const { return sim_.regValue(0, reg); }
    uint64_t bramWord(int bram, int addr) const
    {
        return sim_.bramWord(0, bram, addr);
    }

  private:
    BatchSimulator sim_;
};

/** Drive `cycles` cycles of common random input through both simulators
 * (templated so Simulator/OneLaneBatch mix freely), comparing every
 * output each cycle and the full architectural state at the end. */
template <typename SimA, typename SimB>
void
lockstep(const Circuit &ca, SimA &sa, const Circuit &cb, SimB &sb,
         uint64_t seed, int cycles)
{
    ASSERT_EQ(ca.outputs().size(), cb.outputs().size());
    Rng rng(seed);
    sa.reset();
    sb.reset();
    for (int cycle = 0; cycle < cycles; ++cycle) {
        for (size_t p = 0; p < ca.inputs().size(); ++p) {
            uint64_t v = rng.next() & mask64(ca.inputs()[p].width);
            sa.setInput(static_cast<int>(p), v);
            sb.setInput(static_cast<int>(p), v);
        }
        sa.evalComb();
        sb.evalComb();
        for (size_t o = 0; o < ca.outputs().size(); ++o)
            ASSERT_EQ(sa.value(ca.outputs()[o].node),
                      sb.value(cb.outputs()[o].node))
                << "seed " << seed << " cycle " << cycle << " output "
                << ca.outputs()[o].name;
        sa.step();
        sb.step();
    }
    for (size_t r = 0; r < ca.regs().size(); ++r)
        ASSERT_EQ(sa.regValue(static_cast<int>(r)),
                  sb.regValue(static_cast<int>(r)))
            << "seed " << seed << " reg " << ca.regs()[r].name;
    for (size_t b = 0; b < ca.brams().size(); ++b)
        for (int addr = 0; addr < ca.brams()[b].elements; ++addr)
            ASSERT_EQ(sa.bramWord(static_cast<int>(b), addr),
                      sb.bramWord(static_cast<int>(b), addr))
                << "seed " << seed << " bram " << ca.brams()[b].name
                << " addr " << addr;
}

class RtlOptRandom : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RtlOptRandom, OptimizerPreservesObservableBehaviour)
{
    uint64_t seed = GetParam();
    Circuit source = randomCircuit(seed);
    size_t source_nodes = source.nodes().size();

    OptResult opt = rtl::optimize(source);
    // The source circuit is read-only to the optimizer (Verilog and area
    // accounting keep reading it).
    EXPECT_EQ(source.nodes().size(), source_nodes);
    EXPECT_EQ(opt.stats.sourceNodes, source_nodes);
    EXPECT_EQ(opt.stats.resultNodes, opt.circuit.nodes().size());

    Simulator golden(source);
    Simulator optimized(opt.circuit);
    lockstep(source, golden, opt.circuit, optimized, seed * 31 + 7, 300);
}

TEST_P(RtlOptRandom, TapeMatchesInterpreter)
{
    uint64_t seed = GetParam();
    Circuit source = randomCircuit(seed);
    Simulator golden(source);
    OneLaneBatch tape(TapeProgram::compile(source, /*optimize=*/true));
    lockstep(source, golden, source, tape, seed * 37 + 5, 300);
}

TEST_P(RtlOptRandom, UnoptimizedTapeMatchesInterpreter)
{
    uint64_t seed = GetParam();
    Circuit source = randomCircuit(seed);
    Simulator golden(source);
    OneLaneBatch tape(TapeProgram::compile(source, /*optimize=*/false));
    lockstep(source, golden, source, tape, seed * 41 + 3, 200);
}

TEST_P(RtlOptRandom, BatchLanesMatchInterpreter)
{
    uint64_t seed = GetParam();
    Circuit source = randomCircuit(seed);
    auto program = std::make_shared<const TapeProgram>(
        TapeProgram::compile(source));

    // Each lane runs an independent random input sequence; every lane
    // must match its own scalar interpreter exactly even though all
    // lanes advance through one evalAll()/step() pair per cycle.
    constexpr int kLanes = 5;
    BatchSimulator batch(program, kLanes);
    std::vector<std::unique_ptr<Simulator>> refs;
    std::vector<Rng> rngs;
    for (int l = 0; l < kLanes; ++l) {
        refs.push_back(std::make_unique<Simulator>(source));
        rngs.emplace_back(seed * 1000 + l);
    }
    batch.reset();
    for (auto &ref : refs)
        ref->reset();

    for (int cycle = 0; cycle < 200; ++cycle) {
        for (int l = 0; l < kLanes; ++l)
            for (size_t p = 0; p < source.inputs().size(); ++p) {
                uint64_t v =
                    rngs[l].next() & mask64(source.inputs()[p].width);
                batch.setInput(l, static_cast<int>(p), v);
                refs[l]->setInput(static_cast<int>(p), v);
            }
        batch.evalAll();
        for (int l = 0; l < kLanes; ++l) {
            refs[l]->evalComb();
            for (const auto &out : source.outputs())
                ASSERT_EQ(batch.value(l, out.node),
                          refs[l]->value(out.node))
                    << "seed " << seed << " cycle " << cycle << " lane "
                    << l << " output " << out.name;
        }
        batch.step();
        for (auto &ref : refs)
            ref->step();
    }
    for (int l = 0; l < kLanes; ++l) {
        for (size_t r = 0; r < source.regs().size(); ++r)
            ASSERT_EQ(batch.regValue(l, static_cast<int>(r)),
                      refs[l]->regValue(static_cast<int>(r)))
                << "seed " << seed << " lane " << l;
        for (size_t b = 0; b < source.brams().size(); ++b)
            for (int addr = 0; addr < source.brams()[b].elements; ++addr)
                ASSERT_EQ(batch.bramWord(l, static_cast<int>(b), addr),
                          refs[l]->bramWord(static_cast<int>(b), addr))
                    << "seed " << seed << " lane " << l;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RtlOptRandom,
                         ::testing::Range<uint64_t>(1, 33));

TEST(RtlOpt, FoldsConstantExpressions)
{
    Circuit c("fold");
    NodeId x = c.addInput("x", 8);
    // (x + 0) ^ 0 | (3 * 4 sliced to 8) — the additive identities vanish
    // and the constant product folds, leaving a small core.
    NodeId sum = c.makeBin(BinOp::Add, x, c.makeConst(0, 8));
    NodeId v = c.makeBin(BinOp::Xor, sum, c.makeConst(0, 8));
    NodeId prod = c.makeBin(BinOp::Mul, c.makeConst(3, 4),
                            c.makeConst(4, 4));
    c.addOutput("o", c.makeBin(BinOp::Or, v, c.makeResize(prod, 8)));
    c.validate();

    OptResult opt = rtl::optimize(c);
    EXPECT_LT(opt.circuit.nodes().size(), c.nodes().size());

    Simulator a(c), b(opt.circuit);
    lockstep(c, a, opt.circuit, b, 99, 50);
}

TEST(RtlOpt, EliminatesDeadNodes)
{
    Circuit c("dce");
    NodeId x = c.addInput("x", 8);
    NodeId y = c.addInput("y", 8);
    // A chain of unreferenced work plus one live output.
    NodeId dead = c.makeBin(BinOp::Mul, x, y);
    dead = c.makeBin(BinOp::Add, dead, x);
    c.makeUn(UnOp::Not, dead);
    c.addOutput("o", c.makeBin(BinOp::Xor, x, y));
    c.validate();

    OptResult opt = rtl::optimize(c);
    EXPECT_GT(opt.stats.deadNodes, 0u);
    EXPECT_LT(opt.stats.resultNodes, opt.stats.sourceNodes);

    Simulator a(c), b(opt.circuit);
    lockstep(c, a, opt.circuit, b, 123, 50);
}

TEST(RtlOpt, TapeAliasesZeroExtensions)
{
    // {0, x} must not cost a tape op: the zero-extension aliases the
    // operand's slot (values are stored already masked).
    Circuit c("zext");
    NodeId x = c.addInput("x", 8);
    NodeId wide = c.makeResize(x, 20);
    c.addOutput("o", wide);
    c.validate();

    TapeProgram t = TapeProgram::compile(c, /*optimize=*/false);
    EXPECT_TRUE(t.ops.empty());
    EXPECT_EQ(t.slotOf(wide), t.slotOf(x));
}

} // namespace
} // namespace fleet
