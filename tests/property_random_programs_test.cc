#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "compile/compiler.h"
#include "lang/builder.h"
#include "rtl/batch_sim.h"
#include "rtl/jit.h"
#include "rtl/tape.h"
#include "sim/simulator.h"
#include "system/fleet_system.h"
#include "system/pu_fast.h"
#include "system/pu_rtl.h"
#include "system/pu_rtl_batch.h"
#include "rtl/sim.h"
#include "system/pu_testbench.h"
#include "util/rng.h"

/**
 * Property test: generate random restriction-respecting Fleet programs and
 * verify that the functional simulator, the compiled RTL, and the fast
 * replay model agree on outputs (and the two cycle models on exact cycle
 * counts) across stall profiles. This is the reproduction of the paper's
 * cross-checking test infrastructure (Section 6), generalized from six
 * hand-written applications to a program family.
 *
 * The same program family also feeds the observability layer (ISSUE 3):
 * random programs run under the full system with tracing enabled must
 * satisfy the counter-conservation invariants, and tracing must never
 * change the simulation (trace-on and trace-off runs bit-identical).
 */

namespace fleet {
namespace {

using lang::Bram;
using lang::Program;
using lang::ProgramBuilder;
using lang::Value;
using lang::VecReg;
using lang::mux;

/** Generates one random program per seed. */
class RandomProgramGenerator
{
  public:
    /**
     * Program shape. Default: a couple of top-level statements, if/else
     * trees at most two deep, one optional top-level while. Branchy:
     * if/elif chains of three or four arms (else optional) nested
     * three deep, BRAM reads in arm conditions, and the while under an
     * `if` path. The shapes draw from the generator differently, so
     * adding one leaves every seed's default program as it was.
     */
    enum class Shape { Default, Branchy };

    explicit RandomProgramGenerator(uint64_t seed,
                                    Shape shape = Shape::Default)
        : rng_(seed), shape_(shape)
    {
    }

    Program
    generate()
    {
        int token_width = pick({4, 8, 8, 16});
        int out_width = pick({4, 8, 8, 12});
        ProgramBuilder b("rand", token_width, out_width);

        // State elements.
        int num_regs = 1 + static_cast<int>(rng_.nextBelow(4));
        std::vector<Value> regs;
        for (int i = 0; i < num_regs; ++i) {
            int w = 2 + static_cast<int>(rng_.nextBelow(11));
            regs.push_back(b.reg("r" + std::to_string(i), w,
                                 rng_.next() & mask64(w)));
        }
        std::vector<VecReg> vregs;
        if (rng_.nextChance(1, 2))
            vregs.push_back(b.vreg("v0", 4 << rng_.nextBelow(2), 8));
        std::vector<Bram> brams;
        int num_brams = static_cast<int>(rng_.nextBelow(3));
        for (int i = 0; i < num_brams; ++i)
            brams.push_back(b.bram("m" + std::to_string(i),
                                   8 << rng_.nextBelow(3), 8));

        // One fixed read-address expression per BRAM guarantees the
        // one-read-per-virtual-cycle restriction by construction.
        ctx_ = Ctx{&b, regs, vregs, brams, {}};
        for (const auto &bram : brams) {
            int aw = indexWidth(bram.elements());
            ctx_.bramReadAddr.push_back(
                bramFreeExpr(3).resize(aw + 2) &
                Value::lit(bram.elements() - 1, aw + 2).resize(aw + 2));
        }

        if (shape_ == Shape::Branchy)
            return finishBranchy(out_width);

        // Program body: a couple of top-level statements, possibly an
        // if/else tree, one optional while loop, one emit.
        emitPlaced_ = false;
        std::vector<int> unassigned;
        for (int i = 0; i < num_regs; ++i)
            unassigned.push_back(i);
        // Reserve reg 0 as the while counter if we place a loop.
        bool use_while = rng_.nextChance(2, 3);
        if (use_while) {
            Value counter = regs[0];
            int cw = counter.width();
            b.while_(counter != 0, [&] {
                b.assign(counter, counter - 1);
                if (!emitPlaced_ && rng_.nextChance(1, 2)) {
                    b.emit(anyExpr(2).resize(out_width));
                    emitPlaced_ = true;
                }
            });
            // Reload the counter outside the loop from the input.
            b.assign(counter,
                     b.input().resize(cw) &
                         Value::lit(7, cw > 3 ? cw : 3).resize(cw));
            unassigned.erase(unassigned.begin());
        }

        genBlock(unassigned, out_width, 0);

        writeMemories();
        if (!emitPlaced_)
            b.emit(anyExpr(2).resize(out_width));

        return b.finish();
    }

  private:
    /** Make sure every BRAM's read address is actually exercised and
     * each BRAM and the vector register get one write site. */
    void
    writeMemories()
    {
        ProgramBuilder &b = *ctx_.b;
        for (size_t m = 0; m < ctx_.brams.size(); ++m) {
            Bram &bram = ctx_.brams[m];
            b.assign(bram[ctx_.bramReadAddr[m]],
                     (bram[ctx_.bramReadAddr[m]] + bramFreeExpr(1))
                         .resize(8));
        }
        if (!ctx_.vregs.empty()) {
            int iw = indexWidth(ctx_.vregs[0].elements());
            b.assign(ctx_.vregs[0][bramFreeExpr(2).resize(iw)],
                     bramFreeExpr(2).resize(8));
        }
    }

    /** The Branchy body: register 0 is the loop counter, reloaded
     * outside the loop; the rest go to a branch-heavy block. */
    Program
    finishBranchy(int out_width)
    {
        ProgramBuilder &b = *ctx_.b;
        std::vector<int> targets;
        for (size_t i = 1; i < ctx_.regs.size(); ++i)
            targets.push_back(int(i));
        whilePlaced_ = false;
        const bool emitted = branchyBlock(targets, out_width, 0, true,
                                          false);
        const Value counter = ctx_.regs[0];
        const int cw = counter.width();
        b.assign(counter, b.input().resize(cw) &
                              Value::lit(7, cw > 3 ? cw : 3).resize(cw));
        writeMemories();
        if (!emitted)
            b.emit(anyExpr(2).resize(out_width));
        return b.finish();
    }

    /** An arm condition: BRAM reads allowed (every BRAM has one read
     * address, so its gates are unrestricted). */
    Value
    armCond()
    {
        if (!ctx_.brams.empty() && rng_.nextChance(1, 2)) {
            size_t m = rng_.nextBelow(ctx_.brams.size());
            return combine(ctx_.brams[m][ctx_.bramReadAddr[m]],
                           bramFreeExpr(1), 2);
        }
        return bramFreeExpr(2);
    }

    /**
     * A Branchy block: each register in `targets` is assigned at most
     * once on any path through it, and it emits at most once on any
     * path, only if `may_emit`. Returns true if some path emits. Out
     * of a loop, one arm path at depth 1 or more may hold the loop.
     */
    bool
    branchyBlock(const std::vector<int> &targets, int out_width,
                 int depth, bool may_emit, bool in_loop)
    {
        ProgramBuilder &b = *ctx_.b;
        const size_t plain = rng_.nextBelow(targets.size() + 1);
        for (size_t i = 0; i < plain; ++i) {
            const Value &reg = ctx_.regs[targets[i]];
            b.assign(reg, anyExpr(2).resize(reg.width()));
        }
        const std::vector<int> rest(targets.begin() + plain,
                                    targets.end());
        bool emitted = false;
        if (depth < 3 && (!rest.empty() || rng_.nextChance(1, 2))) {
            // Mutually exclusive arms: each may assign any of the rest.
            auto arm = [&] {
                std::vector<int> subset;
                for (int t : rest)
                    if (rng_.nextChance(2, 3))
                        subset.push_back(t);
                if (!in_loop && !whilePlaced_ && depth > 0 &&
                    rng_.nextChance(1, 2)) {
                    placeWhile(out_width);
                }
                emitted = branchyBlock(subset, out_width, depth + 1,
                                       may_emit, in_loop) ||
                          emitted;
            };
            const int arms = 3 + int(rng_.nextBelow(2));
            lang::IfChain chain = b.if_(armCond(), arm);
            for (int k = 1; k < arms; ++k)
                chain.elseIf(armCond(), arm);
            if (rng_.nextChance(2, 3))
                chain.else_(arm);
        } else {
            for (int t : rest) {
                const Value &reg = ctx_.regs[t];
                b.assign(reg, anyExpr(2).resize(reg.width()));
            }
        }
        if (may_emit && !emitted && rng_.nextChance(1, 3)) {
            b.emit(anyExpr(2).resize(out_width));
            emitted = true;
        }
        return emitted;
    }

    /** The loop: counts register 0 down, running a branchy body over
     * some other registers (loop cycles run no out-of-loop action, so
     * the body has its own assignment and emit budget). */
    void
    placeWhile(int out_width)
    {
        whilePlaced_ = true;
        const Value counter = ctx_.regs[0];
        std::vector<int> body;
        for (size_t i = 1; i < ctx_.regs.size(); ++i)
            if (rng_.nextChance(1, 2))
                body.push_back(int(i));
        ctx_.b->while_(counter != 0, [&] {
            ctx_.b->assign(counter, counter - 1);
            branchyBlock(body, out_width, 1, true, true);
        });
    }

    struct Ctx
    {
        ProgramBuilder *b;
        std::vector<Value> regs;
        std::vector<VecReg> vregs;
        std::vector<Bram> brams;
        std::vector<Value> bramReadAddr;
    };

    int
    pick(std::initializer_list<int> options)
    {
        auto it = options.begin();
        std::advance(it, rng_.nextBelow(options.size()));
        return *it;
    }

    /** Random expression with no BRAM reads (usable in conditions). */
    Value
    bramFreeExpr(int depth)
    {
        if (depth == 0 || rng_.nextChance(1, 3)) {
            switch (rng_.nextBelow(3)) {
              case 0:
                return ctx_.b->input();
              case 1:
                return ctx_.regs[rng_.nextBelow(ctx_.regs.size())];
              default:
                return Value::lit(rng_.next() & mask64(6), 6);
            }
        }
        Value a = bramFreeExpr(depth - 1);
        Value c = bramFreeExpr(depth - 1);
        return combine(a, c, depth);
    }

    /** Random expression that may read BRAMs (value positions only). */
    Value
    anyExpr(int depth)
    {
        if (!ctx_.brams.empty() && rng_.nextChance(1, 3)) {
            size_t m = rng_.nextBelow(ctx_.brams.size());
            return ctx_.brams[m][ctx_.bramReadAddr[m]];
        }
        if (!ctx_.vregs.empty() && rng_.nextChance(1, 4)) {
            int iw = indexWidth(ctx_.vregs[0].elements());
            return ctx_.vregs[0][bramFreeExpr(1).resize(iw)];
        }
        if (depth == 0)
            return bramFreeExpr(0);
        Value a = anyExpr(depth - 1);
        Value c = anyExpr(depth - 1);
        return combine(a, c, depth);
    }

    Value
    combine(const Value &a, const Value &c, int depth)
    {
        switch (rng_.nextBelow(10)) {
          case 0: return a + c;
          case 1: return a - c;
          case 2: return a ^ c;
          case 3: return a & c;
          case 4: return a | c;
          case 5: return (a == c).resize(1);
          case 6: return (a < c).resize(1);
          case 7: return mux(bramFreeExpr(depth - 1), a, c);
          case 8: return (a >> Value::lit(rng_.nextBelow(4), 2));
          default: return ~a;
        }
    }

    /** Emit statements assigning each register in `targets` exactly once,
     * possibly nested under random if/else arms. */
    void
    genBlock(const std::vector<int> &targets, int out_width, int depth)
    {
        ProgramBuilder &b = *ctx_.b;
        size_t i = 0;
        while (i < targets.size()) {
            if (depth < 2 && targets.size() - i >= 2 &&
                rng_.nextChance(1, 2)) {
                // Split the remaining targets across if/else arms: the
                // arms are mutually exclusive so each register still
                // commits at most once per virtual cycle.
                std::vector<int> arm_a, arm_b;
                for (size_t j = i; j < targets.size(); ++j)
                    (rng_.nextChance(1, 2) ? arm_a : arm_b)
                        .push_back(targets[j]);
                Value cond = bramFreeExpr(2);
                b.if_(cond, [&] {
                    genBlock(arm_a, out_width, depth + 1);
                    maybeEmit(out_width);
                }).else_([&] {
                    genBlock(arm_b, out_width, depth + 1);
                    maybeEmit(out_width);
                });
                return;
            }
            int r = targets[i];
            int w = ctx_.regs[r].width();
            b.assign(ctx_.regs[r], anyExpr(2).resize(w));
            ++i;
        }
    }

    void
    maybeEmit(int out_width)
    {
        if (!emitPlaced_ && rng_.nextChance(1, 3)) {
            ctx_.b->emit(anyExpr(2).resize(out_width));
            emitPlaced_ = true;
        }
    }

    Rng rng_;
    Shape shape_;
    Ctx ctx_{nullptr, {}, {}, {}, {}};
    bool emitPlaced_ = false;
    bool whilePlaced_ = false;
};

class RandomProgramCrossCheck : public ::testing::TestWithParam<uint64_t>
{
};

/**
 * The functional simulator, the RTL interpreter, the fast replay model
 * and a batched-engine lane agree on outputs (and the cycle models on
 * cycles) across stall profiles, and the compiled runtime checks never
 * fire.
 */
void
crossCheck(const Program &program, uint64_t seed)
{
    Rng rng(seed * 7919 + 1);
    BitBuffer input;
    int tokens = 120 + static_cast<int>(rng.nextBelow(100));
    for (int i = 0; i < tokens; ++i)
        input.appendBits(rng.next(), program.inputTokenWidth);

    sim::FunctionalSimulator functional(program);
    sim::RunResult golden = functional.run(input);

    system::RtlPu rtl_pu(program);
    system::FastPu fast_pu(program, input);
    auto engine = std::make_shared<const system::RtlTapeEngine>(program);
    auto batch = std::make_shared<system::RtlBatch>(engine, 4);
    system::RtlBatchLane batch_pu(batch, 2);

    const system::TestbenchOptions profiles[] = {
        {1.0, 1.0, seed + 1, 1ULL << 26},
        {0.6, 0.7, seed + 2, 1ULL << 26},
    };
    for (const auto &profile : profiles) {
        auto rtl_result = system::runPu(rtl_pu, input, profile);
        auto fast_result = system::runPu(fast_pu, input, profile);
        auto batch_result = system::runPu(batch_pu, input, profile);
        ASSERT_TRUE(rtl_result.output == golden.output)
            << "seed " << seed << ": RTL output mismatch";
        ASSERT_TRUE(fast_result.output == golden.output)
            << "seed " << seed << ": fast-model output mismatch";
        ASSERT_TRUE(batch_result.output == golden.output)
            << "seed " << seed << ": batched-engine output mismatch";
        ASSERT_EQ(rtl_result.cycles, fast_result.cycles)
            << "seed " << seed << ": cycle-count mismatch";
        ASSERT_EQ(rtl_result.cycles, batch_result.cycles)
            << "seed " << seed << ": interpreter/batch cycle mismatch";
    }

    // Property: the generator only produces restriction-respecting
    // programs (the functional run above would have thrown otherwise),
    // so the compiler's inserted runtime checks must never fire.
    compile::CompileOptions check_options;
    check_options.insertRuntimeChecks = true;
    auto checked = compile::compileProgram(program, check_options);
    rtl::Simulator sim(checked.circuit);
    rtl::NodeId violation = checked.circuit.outputNode("violation");
    uint64_t token_count = input.sizeBits() / program.inputTokenWidth;
    uint64_t next = 0;
    for (uint64_t cycle = 0; cycle < token_count + 200; ++cycle) {
        bool have = next < token_count;
        sim.setInput(checked.inInputToken,
                     have ? input.readBits(next * program.inputTokenWidth,
                                           program.inputTokenWidth)
                          : 0);
        sim.setInput(checked.inInputValid, have ? 1 : 0);
        sim.setInput(checked.inInputFinished, have ? 0 : 1);
        sim.setInput(checked.inOutputReady, 1);
        sim.evalComb();
        ASSERT_EQ(sim.value(violation), 0u)
            << "seed " << seed << ": runtime check fired at cycle "
            << cycle;
        if (sim.value(checked.outOutputFinished) != 0)
            break;
        if (sim.value(checked.outInputReady) != 0 && have)
            ++next;
        sim.step();
    }
}

TEST_P(RandomProgramCrossCheck, AllBackendsAgree)
{
    const uint64_t seed = GetParam();
    crossCheck(RandomProgramGenerator(seed).generate(), seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramCrossCheck,
                         ::testing::Range<uint64_t>(1, 41));

class RandomBranchyProgramCrossCheck
    : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RandomBranchyProgramCrossCheck, AllBackendsAgree)
{
    const uint64_t seed = GetParam();
    crossCheck(RandomProgramGenerator(
                   seed, RandomProgramGenerator::Shape::Branchy)
                   .generate(),
               seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomBranchyProgramCrossCheck,
                         ::testing::Range<uint64_t>(1, 25));

/** What a program's statement tree holds, for the shape check. */
struct TreeShape
{
    size_t longestChain = 0; ///< Most conditional arms in one chain.
    bool chainWithElse = false;
    int depth = 0; ///< Deepest `if` nesting.
    bool whileUnderIf = false;
    bool readInArmCond = false;
    bool readInMuxLeg = false;

    void
    block(const lang::Block &stmts, int if_depth)
    {
        for (const auto &stmt : stmts) {
            if (const auto *i = std::get_if<lang::IfStmt>(&stmt->node)) {
                longestChain = std::max(longestChain, i->arms.size());
                chainWithElse = chainWithElse ||
                                (i->arms.size() >= 3 &&
                                 !i->elseBlock.empty());
                depth = std::max(depth, if_depth + 1);
                for (const auto &[cond, body] : i->arms) {
                    readInArmCond =
                        readInArmCond || lang::containsBramRead(cond);
                    block(body, if_depth + 1);
                }
                block(i->elseBlock, if_depth + 1);
            } else if (const auto *w =
                           std::get_if<lang::WhileStmt>(&stmt->node)) {
                whileUnderIf = whileUnderIf || if_depth > 0;
                block(w->body, if_depth);
            } else if (const auto *a =
                           std::get_if<lang::AssignStmt>(&stmt->node)) {
                muxLegs(a->value);
            } else if (const auto *e =
                           std::get_if<lang::EmitStmt>(&stmt->node)) {
                muxLegs(e->value);
            }
        }
    }

    void
    muxLegs(const lang::Expr &e)
    {
        if (!e || readInMuxLeg)
            return;
        if (e->kind == lang::ExprKind::Mux &&
            (lang::containsBramRead(e->a) ||
             lang::containsBramRead(e->b))) {
            readInMuxLeg = true;
            return;
        }
        muxLegs(e->a);
        muxLegs(e->b);
        muxLegs(e->c);
    }
};

TEST(RandomBranchyPrograms, CoverTheShape)
{
    // The seeds the cross-check runs hold every feature it is meant to
    // exercise, each in several programs.
    int chains = 0, with_else = 0, deep = 0, nested_loops = 0,
        arm_reads = 0, leg_reads = 0;
    for (uint64_t seed = 1; seed < 25; ++seed) {
        Program program = RandomProgramGenerator(
                              seed, RandomProgramGenerator::Shape::Branchy)
                              .generate();
        TreeShape shape;
        shape.block(program.body, 0);
        chains += shape.longestChain >= 3;
        with_else += shape.chainWithElse;
        deep += shape.depth >= 3;
        nested_loops += shape.whileUnderIf;
        arm_reads += shape.readInArmCond;
        leg_reads += shape.readInMuxLeg;
    }
    EXPECT_GE(chains, 16);
    EXPECT_GE(with_else, 12);
    EXPECT_GE(deep, 16);
    EXPECT_GE(nested_loops, 12);
    EXPECT_GE(arm_reads, 10);
    EXPECT_GE(leg_reads, 8);
    std::printf("of 24 programs: %d chains of 3+ arms, %d with else, %d "
                "nested 3 deep, %d with a loop under an if, %d with a "
                "BRAM read in an arm condition, %d in a mux leg\n",
                chains, with_else, deep, nested_loops, arm_reads,
                leg_reads);
}

class RandomProgramTraceConservation
    : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RandomProgramTraceConservation, InvariantsHoldAndTracingIsPure)
{
    uint64_t seed = GetParam();
    RandomProgramGenerator generator(seed);
    Program program = generator.generate();

    // A handful of streams of random whole tokens, unevenly sized so
    // the channels finish at different cycles.
    Rng rng(seed * 6271 + 5);
    std::vector<BitBuffer> streams;
    for (int p = 0; p < 5; ++p) {
        BitBuffer stream;
        int tokens = 90 + static_cast<int>(rng.nextBelow(120));
        for (int i = 0; i < tokens; ++i)
            stream.appendBits(rng.next(), program.inputTokenWidth);
        streams.push_back(std::move(stream));
    }

    // Note bufferBursts stays at the paper's 1: non-dividing token
    // widths (e.g. 12-bit outputs against 1024-bit bursts) are handled
    // by the controllers' one-token skid (memctl/params.h tokenBits),
    // not by doubling the buffer.
    auto config = [](int threads, bool traced) {
        system::SystemConfig c;
        c.numChannels = 3;
        c.numThreads = threads;
        c.trace.counters = traced;
        c.trace.events = traced;
        return c;
    };

    system::FleetSystem traced(program, config(1, true), streams);
    const system::RunReport &report = traced.run();
    ASSERT_TRUE(report.allOk()) << "seed " << seed << ": "
                                << report.summary();
    ASSERT_NE(report.trace, nullptr);

    // Conservation: every (PU, cycle) in exactly one phase; delivered
    // bits equal stream bits at both the PU and controller level; the
    // occupancy histograms hold one sample per cycle.
    for (const trace::ChannelTrace &ch : report.trace->channels) {
        uint64_t pu_delivered = 0;
        const trace::CounterSet *input = nullptr;
        for (const trace::CounterSet &set : ch.counters) {
            if (set.name.ends_with("/input_ctrl"))
                input = &set;
            if (set.name.find("/pu") == std::string::npos)
                continue;
            uint64_t phase_sum = 0;
            for (int p = 0; p < trace::kNumPuPhases; ++p)
                phase_sum += set.get(
                    std::string(trace::puPhaseName(
                        static_cast<trace::PuPhase>(p))) +
                    "_cycles");
            EXPECT_EQ(phase_sum, ch.cycles)
                << "seed " << seed << " " << set.name;
            EXPECT_EQ(set.get("delivered_bits"), set.get("stream_bits"))
                << "seed " << seed << " " << set.name;
            pu_delivered += set.get("delivered_bits");
        }
        ASSERT_NE(input, nullptr) << "seed " << seed;
        EXPECT_EQ(input->get("bits_delivered"), pu_delivered)
            << "seed " << seed << " channel " << ch.channel;
        for (const trace::Histogram &h : ch.histograms)
            EXPECT_EQ(h.samples(), ch.cycles)
                << "seed " << seed << " " << h.name;
    }

    // Determinism: the worker-pool run collects the identical trace.
    system::FleetSystem parallel(program, config(4, true), streams);
    const system::RunReport &parallel_report = parallel.run();
    ASSERT_TRUE(report == parallel_report)
        << "seed " << seed << ": traced reports diverge across threads";

    // Purity: switching tracing off changes nothing observable.
    system::FleetSystem plain(program, config(1, false), streams);
    plain.run();
    EXPECT_EQ(plain.stats().cycles, traced.stats().cycles)
        << "seed " << seed;
    for (int p = 0; p < plain.numPus(); ++p)
        EXPECT_TRUE(plain.output(p) == traced.output(p))
            << "seed " << seed << " PU " << p
            << ": tracing changed the output bytes";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTraceConservation,
                         ::testing::Range<uint64_t>(1, 17));

/** Drop the engine-identity counters (which name the backend and its
 * compile statistics) so the remaining counters — handshakes, phases,
 * controller and DRAM activity — can be compared across engines. */
trace::CounterSet
stripEngineKeys(const trace::CounterSet &in)
{
    static const char *const engine_keys[] = {
        "backend_rtl",  "backend_rtl_tape", "backend_rtl_jit",
        "circuit_nodes", "tape_ops",        "nodes_eliminated",
        "batch_width",
    };
    trace::CounterSet out;
    out.name = in.name;
    for (const auto &kv : in.values) {
        bool engine_key =
            std::any_of(std::begin(engine_keys), std::end(engine_keys),
                        [&](const char *k) { return kv.first == k; });
        if (!engine_key)
            out.values.push_back(kv);
    }
    return out;
}

class RandomProgramEngineEquivalence
    : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RandomProgramEngineEquivalence, RtlEnginesBitIdentical)
{
    uint64_t seed = GetParam();
    RandomProgramGenerator generator(seed);
    Program program = generator.generate();

    Rng rng(seed * 104729 + 11);
    std::vector<BitBuffer> streams;
    for (int p = 0; p < 4; ++p) {
        BitBuffer stream;
        int tokens = 60 + static_cast<int>(rng.nextBelow(80));
        for (int i = 0; i < tokens; ++i)
            stream.appendBits(rng.next(), program.inputTokenWidth);
        streams.push_back(std::move(stream));
    }

    auto config = [](system::PuBackend backend, int threads) {
        system::SystemConfig c;
        c.numChannels = 2;
        c.numThreads = threads;
        c.backend = backend;
        c.trace.counters = true;
        return c;
    };

    // The per-node interpreter is the reference; the batched and jit
    // engines must match it bit for bit — outputs, cycle count, and
    // every trace counter that is not an engine-identity key — at one
    // thread and at N threads.
    system::FleetSystem interp(program,
                               config(system::PuBackend::RtlInterp, 1),
                               streams);
    const system::RunReport &interp_report = interp.run();
    ASSERT_TRUE(interp_report.allOk())
        << "seed " << seed << ": " << interp_report.summary();

    // RtlJit exercises the native kernel when a host toolchain is
    // available and the documented fallback demotion to the
    // interpreted batch when not (e.g. the FLEET_JIT_DISABLE=1 CI
    // leg) — identical outputs either way, so the assertion holds in
    // both modes.
    const system::PuBackend engines[] = {system::PuBackend::Rtl,
                                         system::PuBackend::RtlJit};
    for (system::PuBackend backend : engines) {
        for (int threads : {1, 4}) {
            system::FleetSystem sys(program, config(backend, threads),
                                    streams);
            const system::RunReport &report = sys.run();
            ASSERT_TRUE(report.allOk())
                << "seed " << seed << ": " << report.summary();
            EXPECT_EQ(sys.stats().cycles, interp.stats().cycles)
                << "seed " << seed << ": cycle-count mismatch";
            for (int p = 0; p < sys.numPus(); ++p)
                ASSERT_TRUE(sys.output(p) == interp.output(p))
                    << "seed " << seed << " PU " << p
                    << ": output mismatch vs interpreter";
            ASSERT_NE(report.trace, nullptr);
            ASSERT_EQ(report.trace->channels.size(),
                      interp_report.trace->channels.size());
            for (size_t ch = 0; ch < report.trace->channels.size();
                 ++ch) {
                const auto &a = report.trace->channels[ch];
                const auto &b = interp_report.trace->channels[ch];
                EXPECT_EQ(a.cycles, b.cycles) << "seed " << seed;
                ASSERT_EQ(a.counters.size(), b.counters.size());
                for (size_t s = 0; s < a.counters.size(); ++s)
                    EXPECT_TRUE(stripEngineKeys(a.counters[s]) ==
                                stripEngineKeys(b.counters[s]))
                        << "seed " << seed << ": counter set "
                        << a.counters[s].name
                        << " differs between engines";
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramEngineEquivalence,
                         ::testing::Range<uint64_t>(1, 9));

class RandomProgramJitBitIdentity
    : public ::testing::TestWithParam<uint64_t>
{
};

/**
 * JIT vs interpreter bit-identity at the BatchSimulator level, on the
 * exactly-observed state: output ports each cycle, every register and
 * every BRAM word at the end. Non-power-of-two lane counts exercise
 * the generated vector main loop plus its scalar tail; a mid-run
 * resetLane models containPu slot reuse after a kill/quarantine, and a
 * single-lane catch-up drives the jit's [lane, lane+1) range — the
 * shape stepRange uses when lanes die mid-run.
 */
TEST_P(RandomProgramJitBitIdentity, MatchesInterpreterLaneForLane)
{
    uint64_t seed = GetParam();
    RandomProgramGenerator generator(seed);
    Program program = generator.generate();
    auto unit = compile::compileProgram(program);
    auto tape = std::make_shared<const rtl::TapeProgram>(
        rtl::TapeProgram::compile(unit.circuit));

    for (int lanes : {5, 11}) {
        rtl::JitOptions jopts;
        jopts.lanes = lanes;
        Status jit_status;
        auto jit = rtl::JitProgram::compile(*tape, jopts, &jit_status);
        if (!jit)
            GTEST_SKIP() << "jit unavailable: " << jit_status.toString();

        rtl::BatchSimulator ref(tape, lanes);
        rtl::BatchSimulator jbs(tape, lanes);
        jbs.attachJit(jit);

        std::vector<Rng> rngs;
        for (int l = 0; l < lanes; ++l)
            rngs.emplace_back(seed * 31 + l);
        auto feed = [&](int l) {
            uint64_t tok =
                rngs[l].next() & mask64(program.inputTokenWidth);
            for (rtl::BatchSimulator *s : {&ref, &jbs}) {
                s->setInput(l, unit.inInputToken, tok);
                s->setInput(l, unit.inInputValid, 1);
                s->setInput(l, unit.inInputFinished, 0);
                s->setInput(l, unit.inOutputReady, 1);
            }
        };
        auto expect_outputs = [&](int l, const char *where) {
            for (rtl::NodeId out :
                 {unit.outInputReady, unit.outOutputToken,
                  unit.outOutputValid, unit.outOutputFinished})
                ASSERT_EQ(jbs.value(l, out), ref.value(l, out))
                    << "seed " << seed << " lanes " << lanes << " lane "
                    << l << " " << where;
        };

        const int reset_lane = int(seed % uint64_t(lanes));
        for (int cycle = 0; cycle < 140; ++cycle) {
            if (cycle == 60) {
                // containPu slot reuse: the lane is reset and re-armed
                // with a fresh stream while its neighbours keep state.
                ref.resetLane(reset_lane);
                jbs.resetLane(reset_lane);
                rngs[reset_lane] = Rng(seed * 131 + 7);
            }
            for (int l = 0; l < lanes; ++l)
                feed(l);
            ref.evalAll();
            jbs.evalAll();
            for (int l = 0; l < lanes; ++l)
                expect_outputs(l, "full-width");
            ref.step();
            jbs.step();
        }

        // Single-lane catch-up (the other lanes are dead or drained).
        for (int cycle = 0; cycle < 20; ++cycle) {
            feed(reset_lane);
            ref.evalLane(reset_lane);
            jbs.evalLane(reset_lane);
            expect_outputs(reset_lane, "single-lane");
            ref.stepLane(reset_lane);
            jbs.stepLane(reset_lane);
        }

        for (int l = 0; l < lanes; ++l) {
            for (size_t r = 0; r < tape->regs.size(); ++r)
                ASSERT_EQ(jbs.regValue(l, int(r)),
                          ref.regValue(l, int(r)))
                    << "seed " << seed << " lanes " << lanes << " lane "
                    << l << " reg " << r;
            for (size_t m = 0; m < tape->brams.size(); ++m)
                for (uint32_t a = 0; a < tape->brams[m].elements; ++a)
                    ASSERT_EQ(jbs.bramWord(l, int(m), int(a)),
                              ref.bramWord(l, int(m), int(a)))
                        << "seed " << seed << " lanes " << lanes
                        << " lane " << l << " bram " << m << " addr "
                        << a;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramJitBitIdentity,
                         ::testing::Range<uint64_t>(1, 9));

} // namespace
} // namespace fleet
