// The functional simulator's token tables (sim/plan.h): every app's run
// pinned as digests recorded before the tables existed, and the places
// a token-only node is read outside a cone.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "lang/builder.h"
#include "sim/plan.h"
#include "sim/simulator.h"
#include "util/logging.h"
#include "util/rng.h"

namespace fleet {
namespace sim {
namespace {

using lang::ProgramBuilder;
using lang::Value;

/** FNV-1a over 64-bit words, byte by byte. */
struct Digest
{
    uint64_t h = 0xcbf29ce484222325ull;

    void
    add(uint64_t v)
    {
        for (int k = 0; k < 8; ++k) {
            h ^= (v >> 8 * k) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
};

/** Fold a whole run of `plan` over `stream` into `d`: the RunResult
 * (output, tokens, vcycles, emits, usedBramForwarding) and every
 * virtual cycle's flags, or the message of a violation. */
void
addRun(Digest &d, const std::shared_ptr<const EvalPlan> &plan,
       const BitBuffer &stream)
{
    std::vector<uint8_t> flags;
    try {
        const RunResult r = FunctionalSimulator(plan).run(stream, &flags);
        const uint64_t bits = r.output.sizeBits();
        d.add(bits);
        for (uint64_t off = 0; off < bits; off += 64)
            d.add(r.output.readBits(off, int(std::min<uint64_t>(
                                             64, bits - off))));
        d.add(r.tokens);
        d.add(r.vcycles);
        d.add(r.emits);
        d.add(r.usedBramForwarding);
        d.add(flags.size());
        for (uint8_t f : flags)
            d.add(f);
    } catch (const FatalError &error) {
        for (const char c : std::string(error.what()))
            d.add(uint8_t(c));
    }
}

TEST(TokenTableFence, AppRunsMatchDigestsRecordedWithoutTables)
{
    // Per app: three seeded 2 KiB streams, an empty stream and a
    // one-token stream, folded into one digest. Recorded by the
    // simulator before it had token tables; a change in any output
    // bit, count, flag or message moves it.
    struct Pinned
    {
        const char *app;
        uint64_t digest;
    };
    const Pinned pinned[] = {
        {"JsonParsing", 0x76645a9e1e6b1dd9ull},
        {"IntegerCoding", 0xb718c784fec6466full},
        {"DecisionTree", 0x2bd1ed5e4b836d40ull},
        {"SmithWaterman", 0xdb98c3be5a6dfb49ull},
        {"Regex", 0x955d1b5c19d2a0bbull},
        {"BloomFilter", 0x0765ca88b5f30c58ull},
    };
    for (const Pinned &p : pinned) {
        const auto app = apps::makeApplication(p.app);
        const lang::Program program = app->program();
        const auto plan = std::make_shared<const EvalPlan>(program);
        Digest d;
        BitBuffer first;
        for (uint64_t seed : {1, 2, 3}) {
            Rng rng(seed);
            const BitBuffer stream = app->generateStream(rng, 2048);
            addRun(d, plan, stream);
            if (seed == 1)
                first = stream;
        }
        addRun(d, plan, BitBuffer());
        BitBuffer one;
        one.appendBits(first.readBits(0, program.inputTokenWidth),
                       program.inputTokenWidth);
        addRun(d, plan, one);
        EXPECT_EQ(d.h, p.digest) << p.app;
    }
}

/** Plan node `i` is tabulated: token-only, in the frontier, and in no
 * cone. */
void
expectTabulated(const EvalPlan &plan, uint32_t i)
{
    ASSERT_LT(i, plan.size());
    EXPECT_TRUE(plan.tokenOnly[i]) << i;
    const auto &frontier = plan.tokens.frontier;
    EXPECT_NE(std::find(frontier.begin(), frontier.end(), i),
              frontier.end())
        << i;
    EXPECT_EQ(std::find(plan.cones.begin(), plan.cones.end(), i),
              plan.cones.end())
        << i;
}

/** The only plan node of opcode `op`. */
uint32_t
onlyNode(const EvalPlan &plan, EvalPlan::Op op)
{
    uint32_t found = EvalPlan::kNone;
    for (uint32_t i = 0; i < plan.size(); ++i) {
        if (plan.nodes[i].op == op) {
            EXPECT_EQ(found, EvalPlan::kNone) << "two nodes of the op";
            found = i;
        }
    }
    EXPECT_NE(found, EvalPlan::kNone);
    return found;
}

BitBuffer
tokens8(const std::vector<uint64_t> &tokens)
{
    BitBuffer buffer;
    for (uint64_t t : tokens)
        buffer.appendBits(t, 8);
    return buffer;
}

std::vector<uint64_t>
emitted(const RunResult &r, int width)
{
    std::vector<uint64_t> out;
    for (uint64_t i = 0; i < r.emits; ++i)
        out.push_back(r.output.readBits(i * width, width));
    return out;
}

/** The message of the violation a run raises, or "" if none. */
std::string
runError(const std::shared_ptr<const EvalPlan> &plan,
         const BitBuffer &stream, SimOptions options = {})
{
    try {
        FunctionalSimulator(plan, options).run(stream);
    } catch (const FatalError &error) {
        return error.what();
    }
    return "";
}

TEST(TokenTable, EveryAppsConesLeaveOutTokenOnlyNodes)
{
    for (const auto &app : apps::allApplications()) {
        const EvalPlan plan(app->program());
        // SmithWaterman's token-only nodes would be the Input alone,
        // so its plan builds no table.
        const bool tabulates = plan.program.inputTokenWidth <=
                                   EvalPlan::kMaxTabulatedWidth &&
                               app->name() != "SmithWaterman";
        const size_t tabulated = size_t(
            std::count(plan.tokenOnly.begin(), plan.tokenOnly.end(), 1));
        EXPECT_EQ(tabulated > 0, tabulates) << app->name();
        for (uint32_t i : plan.cones)
            EXPECT_FALSE(plan.tokenOnly[i]) << app->name() << " " << i;
        const size_t rows =
            tabulates ? size_t(1) << plan.program.inputTokenWidth : 0;
        EXPECT_EQ(plan.tokens.rows.size(),
                  rows * plan.tokens.frontier.size())
            << app->name();
    }
}

TEST(TokenTable, LazyMuxLegReadsTheTokensRow)
{
    // The mux is not token-only (its selector reads a register), so its
    // token-only leg is read lazily, on the cycles that select it.
    ProgramBuilder b("leg", 8, 8);
    Value phase = b.reg("phase", 1, 0);
    Value leg = (b.input() ^ Value::lit(0x5a, 8)) + Value::lit(3, 8);
    b.emit(lang::mux(phase == 0, leg, Value::lit(0xee, 8)));
    b.assign(phase, ~phase);
    const auto plan = std::make_shared<const EvalPlan>(b.finish());
    const EvalPlan::Node &mux =
        plan->nodes[onlyNode(*plan, EvalPlan::Op::Mux)];
    expectTabulated(*plan, mux.a);
    EXPECT_FALSE(plan->tokenOnly[mux.c]);

    const RunResult r =
        FunctionalSimulator(plan).run(tokens8({0x00, 0x41, 0xff, 0x10}));
    // Phase 0 on tokens 0 and 2 and in the cleanup cycle (token 0).
    const std::vector<uint64_t> want = {0x5d, 0xee, 0xa8, 0xee, 0x5d};
    EXPECT_EQ(emitted(r, 8), want);
}

TEST(TokenTable, GatedBramReadAddressIsRangeCheckedWhenTaken)
{
    // A read of m at a token-only address, gated by a register: the
    // address is checked only in the cycles that take the read, and an
    // out-of-range one keeps the simulator's message.
    ProgramBuilder b("gated", 8, 8);
    Value phase = b.reg("phase", 1, 0);
    lang::Bram m = b.bram("m", 16, 8);
    Value in = b.input();
    b.emit(lang::mux(phase == 1, m[in + Value::lit(1, 8)],
                     Value::lit(0x77, 8)));
    b.assign(m[in.slice(3, 0)], in);
    b.assign(phase, ~phase);
    const auto plan = std::make_shared<const EvalPlan>(b.finish());
    ASSERT_EQ(plan->bramReads.size(), 1u);
    EXPECT_NE(plan->bramReads[0].gate, EvalPlan::kNone);
    expectTabulated(*plan, plan->bramReads[0].addr);

    // Token 1 (0x02) reads m[3], written by token 0 in the cycle before:
    // a forwarded read. Token 3 (0x04) reads m[5].
    const RunResult r =
        FunctionalSimulator(plan).run(tokens8({0x03, 0x02, 0x05, 0x04}));
    const std::vector<uint64_t> want = {0x77, 0x03, 0x77, 0x05, 0x77};
    EXPECT_EQ(emitted(r, 8), want);
    EXPECT_TRUE(r.usedBramForwarding);

    // Out of range but gated off (phase 0): no read, no violation.
    EXPECT_EQ(runError(plan, tokens8({0x30, 0x01})), "");
    EXPECT_EQ(runError(plan, tokens8({0x00, 0x20})),
              "gated: restriction violation at token 1: BRAM m read "
              "address 33 out of range (16 elements)");
}

TEST(TokenTable, WhileConditionHoldsItsTokenValueAcrossLoopCycles)
{
    // The loop bound is token-only: every loop cycle of a token reads
    // the same table slot, which must stay current as cycles pass.
    ProgramBuilder b("loop", 8, 8);
    Value count = b.reg("count", 4, 0);
    Value limit = b.input().slice(2, 0).resize(4);
    b.while_(count < limit, [&] {
        b.emit(count.resize(8));
        b.assign(count, count + Value::lit(1, 4));
    });
    b.assign(count, Value::lit(0, 4));
    const auto plan = std::make_shared<const EvalPlan>(b.finish());
    ASSERT_EQ(plan->walk[0].kind, EvalPlan::Step::Kind::While);
    const EvalPlan::Node &cond = plan->nodes[plan->walk[0].cond];
    expectTabulated(*plan, cond.b);

    const RunResult r =
        FunctionalSimulator(plan).run(tokens8({0x03, 0x08, 0x0d}));
    const std::vector<uint64_t> want = {0, 1, 2, 0, 1, 2, 3, 4};
    EXPECT_EQ(emitted(r, 8), want);
    // limit + 1 cycles per token, and one for the cleanup (limit 0).
    EXPECT_EQ(r.vcycles, 4u + 1u + 6u + 1u);
}

TEST(TokenTable, TokenOnlyWhileConditionHitsTheLoopBound)
{
    // A wholly token-only condition holds on every loop cycle of a
    // token that sets it: the per-token bound ends the run.
    ProgramBuilder b("spin", 8, 8);
    Value count = b.reg("count", 8, 0);
    b.while_(b.input() == Value::lit(7, 8),
             [&] { b.assign(count, count + Value::lit(1, 8)); });
    b.emit(count);
    const auto plan = std::make_shared<const EvalPlan>(b.finish());
    expectTabulated(*plan, plan->walk[0].cond);
    SimOptions options;
    options.maxVcyclesPerToken = 16;
    EXPECT_EQ(runError(plan, tokens8({1, 2, 3}), options), "");
    EXPECT_EQ(runError(plan, tokens8({1, 7, 3}), options),
              "spin: while loop exceeded 16 virtual cycles for one token "
              "(infinite loop?)");
}

TEST(TokenTable, CleanupCycleReadsTokenZerosRow)
{
    ProgramBuilder b("cleanup", 8, 8);
    Value x = (b.input() ^ Value::lit(0x5a, 8)) + Value::lit(1, 8);
    b.if_(b.streamFinished(), [&] { b.emit(x); })
        .else_([&] { b.emit(~x); });
    const auto plan = std::make_shared<const EvalPlan>(b.finish());
    expectTabulated(*plan, onlyNode(*plan, EvalPlan::Op::Add));

    const RunResult r = FunctionalSimulator(plan).run(tokens8({0x5a, 0x01}));
    // ~x per token, then x at token 0 in the cleanup cycle.
    const std::vector<uint64_t> want = {0xfe, 0xa3, 0x5b};
    EXPECT_EQ(emitted(r, 8), want);
    // An empty stream runs the cleanup cycle alone.
    EXPECT_EQ(emitted(FunctionalSimulator(plan).run(BitBuffer()), 8),
              std::vector<uint64_t>{0x5b});
}

TEST(TokenTable, SixteenBitTokensGetNoTable)
{
    ProgramBuilder b("wide", 16, 16);
    Value x = (b.input() ^ Value::lit(0x5a5a, 16)) + Value::lit(1, 16);
    b.if_(x == Value::lit(3, 16), [&] { b.emit(x); })
        .else_([&] { b.emit(x + Value::lit(1, 16)); });
    const auto plan = std::make_shared<const EvalPlan>(b.finish());
    EXPECT_EQ(std::count(plan->tokenOnly.begin(), plan->tokenOnly.end(), 1),
              0);
    EXPECT_TRUE(plan->tokens.frontier.empty());
    EXPECT_TRUE(plan->tokens.rows.empty());
    // The input is computed in the first test's cone.
    const uint32_t input = onlyNode(*plan, EvalPlan::Op::Input);
    EXPECT_NE(std::find(plan->cones.begin() + plan->walk[0].coneBegin,
                        plan->cones.begin() + plan->walk[0].coneEnd, input),
              plan->cones.begin() + plan->walk[0].coneEnd);

    BitBuffer stream;
    for (uint64_t t : {0x5a58, 0x1234})
        stream.appendBits(t, 16);
    const RunResult r = FunctionalSimulator(plan).run(stream);
    // x = 3 (emitted as is), x = 0x486f (+1), cleanup x = 0x5a5b (+1).
    const std::vector<uint64_t> want = {0x3, 0x4870, 0x5a5c};
    EXPECT_EQ(emitted(r, 16), want);
}

} // namespace
} // namespace sim
} // namespace fleet
