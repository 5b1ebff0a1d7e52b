// EvalPlan lowering (constant folding, hash-consing) and the functional
// simulator's fused opcodes, pinned against util/ops.h.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "lang/builder.h"
#include "sim/plan.h"
#include "sim/simulator.h"
#include "util/bits.h"
#include "util/ops.h"

namespace fleet {
namespace sim {
namespace {

using lang::ProgramBuilder;
using lang::Value;
using Op = EvalPlan::Op;

const int kWidths[] = {1, 7, 8, 32, 63, 64};

/** Edge values of a `width`-bit operand: 0, 1, all-ones, the sign bit,
 * and shift amounts at, past and far past `shift_width` (all truncated
 * to the operand's width). */
std::vector<uint64_t>
edgeValues(int width, int shift_width)
{
    std::vector<uint64_t> values;
    for (uint64_t v :
         {uint64_t(0), uint64_t(1), mask64(width),
          uint64_t(1) << (width - 1), uint64_t(shift_width),
          uint64_t(shift_width + 1), uint64_t(64), uint64_t(65),
          uint64_t(0x5555555555555555ull)}) {
        v = truncTo(v, width);
        bool seen = false;
        for (uint64_t u : values)
            seen = seen || u == v;
        if (!seen)
            values.push_back(v);
    }
    return values;
}

struct Case
{
    uint64_t a, b;
};

std::vector<Case>
edgeCases(int wa, int wb)
{
    std::vector<Case> cases;
    for (uint64_t a : edgeValues(wa, wa))
        for (uint64_t b : edgeValues(wb, wa))
            cases.push_back(Case{a, b});
    return cases;
}

/** Result of the operator built by `make` over operands read from a
 * register (a) and the input token (b), one pair per two tokens: the
 * node is evaluated by fused dispatch. The result is emitted zero-extended
 * to 64 bits, so bits a missing result mask would leave above the
 * operator's width show. */
template <typename Make>
std::vector<uint64_t>
dispatched(int wa, int wb, const std::vector<Case> &cases, Make make)
{
    ProgramBuilder b("dispatch", 64, 64);
    Value ra = b.reg("a", wa);
    Value phase = b.reg("phase", 1);
    Value in = b.input();
    b.if_(phase == 0, [&] {
         b.assign(ra, in.slice(wa - 1, 0));
         b.assign(phase, 1);
     }).else_([&] {
        b.emit(make(ra, in.slice(wb - 1, 0)).resize(64));
        b.assign(phase, 0);
    });
    BitBuffer input;
    for (const Case &c : cases) {
        input.appendBits(c.a, 64);
        input.appendBits(c.b, 64);
    }
    RunResult result = FunctionalSimulator(b.finish()).run(input);
    std::vector<uint64_t> out;
    for (uint64_t i = 0; i < result.emits; ++i)
        out.push_back(result.output.readBits(i * 64, 64));
    return out;
}

/** The same results with constant operands, one case per token through
 * a mux chain on a counter: every operator node folds to a constant. */
template <typename Make>
std::vector<uint64_t>
folded(int wa, int wb, int w_out, const std::vector<Case> &cases,
       Make make)
{
    ProgramBuilder b("fold", 8, w_out);
    Value count = b.reg("count", 8);
    Value out = Value::lit(0, w_out);
    for (size_t k = cases.size(); k-- > 0;) {
        out = lang::mux(count == Value::lit(k, 8),
                        make(Value::lit(cases[k].a, wa),
                             Value::lit(cases[k].b, wb)),
                        out);
    }
    b.emit(out);
    b.assign(count, count + 1);
    FunctionalSimulator simulator(b.finish());
    for (const EvalPlan::Node &n : simulator.plan().nodes) {
        const bool leaf_operands =
            n.a != EvalPlan::kNone &&
            simulator.plan().nodes[n.a].op == Op::Const &&
            (n.b == EvalPlan::kNone ||
             simulator.plan().nodes[n.b].op == Op::Const);
        EXPECT_FALSE((EvalPlan::isBin(n.op) || EvalPlan::isUn(n.op)) &&
                     leaf_operands)
            << "operator over constants was not folded";
    }
    BitBuffer input;
    for (size_t k = 0; k < cases.size(); ++k)
        input.appendBits(0, 8);
    RunResult result = simulator.run(input);
    std::vector<uint64_t> values;
    for (size_t i = 0; i < cases.size(); ++i)
        values.push_back(result.output.readBits(i * w_out, w_out));
    return values;
}

TEST(FusedOps, BinaryOpsMatchUtilOps)
{
    for (int o = 0; o <= int(BinOp::LOr); ++o) {
        const BinOp op = BinOp(o);
        auto make = [op](const Value &a, const Value &b) {
            return Value(lang::binExpr(op, a.expr(), b.expr()));
        };
        for (int wa : kWidths) {
            for (int wb : kWidths) {
                const int w_out = binOpWidth(op, wa, wb);
                const std::vector<Case> cases = edgeCases(wa, wb);
                const std::vector<uint64_t> fused =
                    dispatched(wa, wb, cases, make);
                const std::vector<uint64_t> consts =
                    folded(wa, wb, w_out, cases, make);
                ASSERT_EQ(fused.size(), cases.size());
                ASSERT_EQ(consts.size(), cases.size());
                for (size_t k = 0; k < cases.size(); ++k) {
                    const uint64_t want =
                        evalBinOp(op, cases[k].a, wa, cases[k].b, wb);
                    const std::string where =
                        std::string(binOpName(op)) + " wa=" +
                        std::to_string(wa) + " wb=" + std::to_string(wb) +
                        " a=" + std::to_string(cases[k].a) +
                        " b=" + std::to_string(cases[k].b);
                    EXPECT_EQ(fused[k], want) << "dispatch " << where;
                    EXPECT_EQ(consts[k], want) << "fold " << where;
                }
            }
        }
    }
}

TEST(FusedOps, UnaryOpsMatchUtilOps)
{
    for (int o = 0; o <= int(UnOp::Neg); ++o) {
        const UnOp op = UnOp(o);
        // The b operand is read but unused, so both helpers stay
        // shared with the binary test.
        auto make = [op](const Value &a, const Value &) {
            return Value(lang::unExpr(op, a.expr()));
        };
        for (int wa : kWidths) {
            const int w_out = unOpWidth(op, wa);
            std::vector<Case> cases;
            for (uint64_t a : edgeValues(wa, wa))
                cases.push_back(Case{a, 0});
            const std::vector<uint64_t> fused =
                dispatched(wa, 1, cases, make);
            const std::vector<uint64_t> consts =
                folded(wa, 1, w_out, cases, make);
            ASSERT_EQ(fused.size(), cases.size());
            ASSERT_EQ(consts.size(), cases.size());
            for (size_t k = 0; k < cases.size(); ++k) {
                const uint64_t want = evalUnOp(op, cases[k].a, wa);
                const std::string where =
                    std::string(unOpName(op)) + " wa=" +
                    std::to_string(wa) + " a=" + std::to_string(cases[k].a);
                EXPECT_EQ(fused[k], want) << "dispatch " << where;
                EXPECT_EQ(consts[k], want) << "fold " << where;
            }
        }
    }
}

size_t
countOp(const EvalPlan &plan, Op op)
{
    size_t count = 0;
    for (const EvalPlan::Node &n : plan.nodes)
        count += n.op == op;
    return count;
}

/** A `width`-bit operand of the 8-bit token `t`, and its value: the
 * token's low bits, or the token zero-extended; `mix` xors it first
 * with 0xa5 so two operands differ. */
Value
tokenOperand(const Value &in, int width, bool mix)
{
    const Value x = mix ? in ^ Value::lit(0xa5, 8) : in;
    return width <= 8 ? x.slice(width - 1, 0) : x.resize(width);
}

uint64_t
tokenOperandValue(uint64_t t, int width, bool mix)
{
    return truncTo(mix ? t ^ 0xa5 : t, width);
}

TEST(FusedOps, TokenTablesMatchUtilOps)
{
    // Every operator over token-only operands, so it is evaluated only
    // by the token table's column loop; each of the 256 tokens emits
    // its result zero-extended to 64 bits. The b operand is a second
    // token-only value or a constant (shift amounts included).
    const int widths[] = {1, 7, 8, 32, 64};
    for (int o = 0; o <= int(BinOp::LOr); ++o) {
        const BinOp op = BinOp(o);
        for (int wa : widths) {
            for (int wb : widths) {
                for (int constant_b = 0; constant_b < 2; ++constant_b) {
                    const uint64_t k = truncTo(uint64_t(wa) + 1, wb);
                    ProgramBuilder b("table", 8, 64);
                    Value in = b.input();
                    Value rhs = constant_b ? Value::lit(k, wb)
                                           : tokenOperand(in, wb, true);
                    b.emit(Value(lang::binExpr(
                                     op, tokenOperand(in, wa, false).expr(),
                                     rhs.expr()))
                               .resize(64));
                    auto plan = std::make_shared<const EvalPlan>(b.finish());
                    // Tabulated whole: no cone is left.
                    ASSERT_TRUE(plan->cones.empty());
                    ASSERT_GT(countOp(*plan, EvalPlan::binCode(op)), 0u);
                    BitBuffer input;
                    for (uint64_t t = 0; t < 256; ++t)
                        input.appendBits(t, 8);
                    const RunResult r = FunctionalSimulator(plan).run(input);
                    ASSERT_EQ(r.emits, 257u); // And the cleanup's token 0.
                    for (uint64_t t = 0; t < 256; ++t) {
                        const uint64_t vb =
                            constant_b ? k : tokenOperandValue(t, wb, true);
                        EXPECT_EQ(r.output.readBits(t * 64, 64),
                                  evalBinOp(op,
                                            tokenOperandValue(t, wa, false),
                                            wa, vb, wb))
                            << binOpName(op) << " wa=" << wa << " wb=" << wb
                            << " const b=" << constant_b << " token " << t;
                    }
                }
            }
        }
    }
    for (int o = 0; o <= int(UnOp::Neg); ++o) {
        const UnOp op = UnOp(o);
        for (int wa : widths) {
            ProgramBuilder b("table", 8, 64);
            b.emit(Value(lang::unExpr(
                             op, tokenOperand(b.input(), wa, true).expr()))
                       .resize(64));
            auto plan = std::make_shared<const EvalPlan>(b.finish());
            ASSERT_TRUE(plan->cones.empty());
            ASSERT_GT(countOp(*plan, EvalPlan::unCode(op)), 0u);
            BitBuffer input;
            for (uint64_t t = 0; t < 256; ++t)
                input.appendBits(t, 8);
            const RunResult r = FunctionalSimulator(plan).run(input);
            for (uint64_t t = 0; t < 256; ++t)
                EXPECT_EQ(r.output.readBits(t * 64, 64),
                          evalUnOp(op, tokenOperandValue(t, wa, true), wa))
                    << unOpName(op) << " wa=" << wa << " token " << t;
        }
    }
}

TEST(PlanShape, AppNodeCountsArePinned)
{
    // All nodes / non-constant nodes after folding and hash-consing.
    // Before, one node per distinct expression node: JsonParsing
    // 265 / 181, IntegerCoding 2678 / 1372, DecisionTree 148 / 112,
    // SmithWaterman 657 / 399, Regex 155 / 113, BloomFilter 176 / 128
    // (with the flattened gate conjunctions the plan no longer lowers).
    struct Shape
    {
        const char *app;
        size_t nodes;
        size_t nonConst;
    };
    const Shape shapes[] = {
        {"JsonParsing", 112, 98},    {"IntegerCoding", 661, 629},
        {"DecisionTree", 66, 62},    {"SmithWaterman", 327, 308},
        {"Regex", 65, 52},           {"BloomFilter", 87, 69},
    };
    for (const Shape &shape : shapes) {
        EvalPlan plan(apps::makeApplication(shape.app)->program());
        EXPECT_EQ(plan.size(), shape.nodes) << shape.app;
        EXPECT_EQ(plan.size() - countOp(plan, Op::Const), shape.nonConst)
            << shape.app;
    }
}

/** An if/elif/else chain over x = input + 1, at a token width. */
lang::Program
chainProgram(int width)
{
    ProgramBuilder b("walk", width, width);
    Value x = b.input() + Value::lit(1, width);
    b.if_(x == 3, [&] { b.emit(x); })
        .elseIf(x == 5, [&] { b.emit(x + Value::lit(1, width)); })
        .else_([&] { b.emit(Value::lit(0, width)); });
    return b.finish();
}

TEST(PlanShape, ConesLeaveOutWhatDominatingStepsComputed)
{
    // 16-bit tokens: no token table, so the cones hold the token's
    // logic.
    EvalPlan plan(chainProgram(16));
    using Kind = EvalPlan::Step::Kind;
    const Kind kinds[] = {Kind::Test,    Kind::Actions, Kind::Jump,
                          Kind::Test,    Kind::Actions, Kind::Jump,
                          Kind::Actions};
    ASSERT_EQ(plan.walk.size(), std::size(kinds));
    for (size_t i = 0; i < std::size(kinds); ++i)
        EXPECT_EQ(plan.walk[i].kind, kinds[i]) << i;
    auto cone = [&](size_t i) {
        return plan.walk[i].coneEnd - plan.walk[i].coneBegin;
    };
    // The first test computes the input, x and x == 3; the first arm's
    // emit has nothing left to compute, the second arm's test only
    // x == 5 and its emit x + 1.
    EXPECT_EQ(cone(0), 3u);
    EXPECT_EQ(cone(1), 0u);
    EXPECT_EQ(cone(3), 1u);
    EXPECT_EQ(cone(4), 1u);
    EXPECT_EQ(cone(6), 0u);
    // A false test goes to the next arm; a taken arm jumps past the
    // chain.
    EXPECT_EQ(plan.walk[0].target, 3u);
    EXPECT_EQ(plan.walk[3].target, 6u);
    EXPECT_EQ(plan.walk[2].target, 7u);
    EXPECT_EQ(plan.walk[5].target, 7u);
}

TEST(PlanShape, TokenOnlyConesAreEmpty)
{
    // 8-bit tokens: every node but the constants is token-only, so the
    // token table holds what the cones computed at 16 bits, and every
    // cone is empty. The frontier is what the steps and actions read:
    // x == 3, x, x == 5 and x + 1, not the input (only x reads it).
    EvalPlan plan(chainProgram(8));
    ASSERT_EQ(plan.walk.size(), 7u);
    for (const EvalPlan::Step &step : plan.walk)
        EXPECT_EQ(step.coneBegin, step.coneEnd);
    EXPECT_TRUE(plan.cones.empty());
    EXPECT_EQ(std::count(plan.tokenOnly.begin(), plan.tokenOnly.end(), 1),
              5);
    ASSERT_EQ(plan.tokens.frontier.size(), 4u);
    EXPECT_EQ(plan.tokens.rows.size(), 256u * 4u);
    for (uint32_t i : plan.tokens.frontier)
        EXPECT_NE(plan.nodes[i].op, Op::Input);
    // Token 2: x = 3, so x == 3 holds and x == 5 does not.
    const uint64_t *row = plan.tokens.rows.data() + 2 * 4;
    std::vector<uint64_t> values(row, row + 4);
    std::sort(values.begin(), values.end());
    EXPECT_EQ(values, (std::vector<uint64_t>{0, 1, 3, 4}));
}

TEST(PlanShape, FoldsConstantsMuxesAndEqualSubtrees)
{
    ProgramBuilder b("shape", 8, 8);
    Value in = b.input();
    Value r = b.reg("r", 8, 0x21);
    // Two separately built, structurally equal subtrees.
    Value x1 = (in ^ r) + Value::lit(1, 8);
    Value x2 = (in ^ r) + Value::lit(1, 8);
    ASSERT_NE(x1.expr().get(), x2.expr().get());
    Value sum = Value::lit(3, 8) + Value::lit(4, 8);
    // Concatenation and slice of constants: {2'b11, 4'b0001} = 0x31,
    // and bits [5:2] of 0xab = 0xa.
    Value packed = lang::cat(Value::lit(3, 2), Value::lit(1, 4));
    Value nibble = Value::lit(0xab, 8).slice(5, 2);
    // A constant selector: the unselected leg (a subtraction) is never
    // lowered.
    Value picked = lang::mux(Value::lit(1, 1), x1, r - in);
    b.emit(picked + x2 + sum + packed + nibble);
    b.assign(r, in);
    EvalPlan plan(b.finish());

    EXPECT_EQ(countOp(plan, Op::Mux), 0u);
    EXPECT_EQ(countOp(plan, Op::Sub), 0u);
    EXPECT_EQ(countOp(plan, Op::Xor), 1u);
    EXPECT_EQ(countOp(plan, Op::Concat), 0u);
    EXPECT_EQ(countOp(plan, Op::Slice), 0u);
    // x1 (= x2), then + x2, + sum, + packed and + nibble; 3 + 4 is one
    // constant.
    EXPECT_EQ(countOp(plan, Op::Add), 5u);
    auto constants = [&](uint64_t value) {
        size_t count = 0;
        for (const EvalPlan::Node &n : plan.nodes)
            count += n.op == Op::Const && n.imm == value;
        return count;
    };
    EXPECT_EQ(constants(7), 1u);
    EXPECT_EQ(constants(0x31), 1u);
    EXPECT_EQ(constants(0xa), 1u);
    // Input, r, the xor and the five adds.
    EXPECT_EQ(plan.size() - countOp(plan, Op::Const), 8u);

    BitBuffer input;
    for (uint64_t token : {0x00, 0x10, 0xff})
        input.appendBits(token, 8);
    RunResult result =
        FunctionalSimulator(std::make_shared<const EvalPlan>(plan))
            .run(input);
    ASSERT_EQ(result.emits, 4u); // Three tokens plus the cleanup cycle.
    uint64_t reg = 0x21;
    const uint64_t tokens[] = {0x00, 0x10, 0xff, 0x00};
    for (int i = 0; i < 4; ++i) {
        const uint64_t x = ((tokens[i] ^ reg) + 1) & 0xff;
        EXPECT_EQ(result.output.readBits(i * 8, 8),
                  (x + x + 7 + 0x31 + 0xa) & 0xff)
            << i;
        reg = tokens[i];
    }
}

TEST(PlanShape, NoFalseMerges)
{
    ProgramBuilder b("distinct", 8, 34);
    Value in = b.input();
    // Two registers of equal width and reset value.
    Value r1 = b.reg("r1", 8, 5);
    Value r2 = b.reg("r2", 8, 5);
    // A vector register and a BRAM read through one index node.
    lang::VecReg v = b.vreg("v", 4, 8, 3);
    lang::Bram m = b.bram("m", 4, 8);
    Value index = in.slice(1, 0);
    // One operand node (the constant 1) read at two widths: -1 as a
    // 1-bit signed value, +1 as an 8-bit one.
    Value below_minus_one = lang::slt(r1, Value::lit(1, 1));
    Value below_one = lang::slt(r1, Value::lit(1, 8));
    b.emit(lang::cat(
        lang::cat(below_minus_one, below_one),
        lang::cat(lang::cat(r1, r2), lang::cat(v[index], m[index]))));
    b.assign(r1, in);
    b.assign(r2, ~in);
    b.assign(m[index], in);
    EvalPlan plan(b.finish());

    EXPECT_EQ(countOp(plan, Op::State), 2u);
    EXPECT_EQ(countOp(plan, Op::Indexed), 2u);
    EXPECT_EQ(countOp(plan, Op::Slt), 2u);
    std::vector<const EvalPlan::Node *> indexed;
    for (const EvalPlan::Node &n : plan.nodes)
        if (n.op == Op::Indexed)
            indexed.push_back(&n);
    ASSERT_EQ(indexed.size(), 2u);
    EXPECT_EQ(indexed[0]->a, indexed[1]->a); // One shared index node.
    EXPECT_NE(indexed[0]->imm, indexed[1]->imm);

    BitBuffer input;
    for (uint64_t token : {0x02, 0x00, 0xfe})
        input.appendBits(token, 8);
    RunResult result =
        FunctionalSimulator(std::make_shared<const EvalPlan>(plan))
            .run(input);
    ASSERT_EQ(result.emits, 4u); // Three tokens plus the cleanup cycle.
    // {r1 < -1, r1 < 1, r1, r2, v[in & 3], m[in & 3]} per cycle, with
    // r1 = in, r2 = ~in and m[in & 3] = in written behind it.
    const uint64_t expected[] = {
        0x005050300ull,
        0x002fd0300ull,
        (uint64_t(1) << 32) | 0x00ff0302ull,
        (uint64_t(3) << 32) | 0xfe010300ull,
    };
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(result.output.readBits(i * 34, 34), expected[i]) << i;
}

} // namespace
} // namespace sim
} // namespace fleet
