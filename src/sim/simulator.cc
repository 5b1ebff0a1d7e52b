#include "sim/simulator.h"

#include <algorithm>

#include "util/bits.h"
#include "util/logging.h"

namespace fleet {
namespace sim {

using lang::LValue;

FunctionalSimulator::FunctionalSimulator(const lang::Program &program,
                                         SimOptions options)
    : FunctionalSimulator(std::make_shared<const EvalPlan>(program),
                          options)
{
}

FunctionalSimulator::FunctionalSimulator(
    std::shared_ptr<const EvalPlan> plan, SimOptions options)
    : plan_(std::move(plan)), options_(options)
{
    const EvalPlan &plan_ref = *plan_;
    memo_.assign(plan_ref.size(), Slot{0, 0});
    for (size_t i = 0; i < plan_ref.size(); ++i) {
        if (plan_ref.nodes[i].op == EvalPlan::Op::Const)
            memo_[i] = Slot{plan_ref.nodes[i].imm, ~uint64_t(0)};
    }
    const size_t brams = plan_ref.program.brams.size();
    readAddr_.resize(brams);
    bramWriteAddr_.resize(brams);
    // Registers and vector-register elements lead the flat state.
    size_t stamped = plan_ref.program.regs.size();
    for (const auto &vreg : plan_ref.program.vregs)
        stamped += size_t(vreg.elements);
    writeEpoch_.assign(stamped, 0);
    opened_.resize(plan_ref.walk.size());
}

void
FunctionalSimulator::reset()
{
    state_ = plan_->initState;
    prevWriteAddr_.assign(plan_->program.brams.size(), -1);
    currentToken_ = 0;
    streamFinished_ = false;
    tokenIndex_ = 0;
}

void
FunctionalSimulator::violation(const std::string &message) const
{
    fatal(plan_->program.name, ": restriction violation at ",
          streamFinished_ ? "cleanup cycle" : "token",
          streamFinished_ ? std::string() : " " + std::to_string(tokenIndex_),
          ": ", message);
}

inline uint64_t
FunctionalSimulator::value(uint32_t node)
{
    const Slot &slot = memo_[node];
    return slot.epoch >= epoch_ ? slot.value : evalNode(node);
}

// Inlined into its one caller per mode (evalCone, evalNode) at every
// optimization level: a call per node would cost as much as the node.
template <bool Eager>
[[gnu::always_inline]] inline uint64_t
FunctionalSimulator::compute(const EvalPlan::Node &n)
{
    using Op = EvalPlan::Op;
    // Operand reads. In a cone every non-mux-leg operand is a node
    // earlier in the cone, a node a dominating step's cone computed, or
    // a constant, so its slot is current and needs no epoch compare;
    // mux legs are lazy.
    auto a = [&] { return Eager ? memo_[n.a].value : value(n.a); };
    auto b = [&] { return Eager ? memo_[n.b].value : value(n.b); };
    auto c = [&] { return Eager ? memo_[n.c].value : value(n.c); };
    switch (n.op) {
      case Op::Const: return n.imm;
      case Op::Input: return currentToken_;
      case Op::StreamFinished: return streamFinished_ ? 1 : 0;
      case Op::State: return state_[n.imm];
      case Op::Indexed: {
        // Out-of-range reads return 0, matching the hardware mux tree's
        // don't-care behaviour; gated BRAM reads are range-checked
        // separately via the plan's bramReads.
        const uint64_t index = a();
        return index < n.aux ? state_[n.imm + index] : 0;
      }
      case Op::Mux:
        // Only the selected leg is evaluated; read accounting is handled
        // separately via the plan's bramReads, whose gating conditions
        // replicate exactly this mux-path behaviour.
        return c() != 0 ? value(n.a) : value(n.b);
      case Op::Slice: return (a() >> n.imm) & n.aux;
      case Op::Concat: return (a() << n.bWidth) | b();
      // The operators, as util/ops.h defines them, with the result mask
      // (aux) precomputed.
      case Op::Add: return (a() + b()) & n.aux;
      case Op::Sub: return (a() - b()) & n.aux;
      case Op::Mul: return (a() * b()) & n.aux;
      case Op::And: return a() & b();
      case Op::Or: return a() | b();
      case Op::Xor: return a() ^ b();
      case Op::Shl: {
        const uint64_t x = a(), s = b();
        return s >= n.aWidth ? 0 : (x << s) & n.aux;
      }
      case Op::Shr: {
        const uint64_t x = a(), s = b();
        return s >= 64 ? 0 : (x >> s) & n.aux;
      }
      case Op::Eq: return a() == b();
      case Op::Ne: return a() != b();
      case Op::Ult: return a() < b();
      case Op::Ule: return a() <= b();
      case Op::Ugt: return a() > b();
      case Op::Uge: return a() >= b();
      case Op::Slt:
        return signExtend64(a(), n.aWidth) < signExtend64(b(), n.bWidth);
      case Op::Sle:
        return signExtend64(a(), n.aWidth) <= signExtend64(b(), n.bWidth);
      case Op::Sgt:
        return signExtend64(a(), n.aWidth) > signExtend64(b(), n.bWidth);
      case Op::Sge:
        return signExtend64(a(), n.aWidth) >= signExtend64(b(), n.bWidth);
      case Op::LAnd: return a() != 0 && b() != 0;
      case Op::LOr: return a() != 0 || b() != 0;
      case Op::Not: return ~a() & n.aux;
      case Op::LNot: return a() == 0;
      case Op::Neg: return (~a() + 1) & n.aux;
    }
    panic("FunctionalSimulator: unknown plan opcode");
}

uint64_t
FunctionalSimulator::evalNode(uint32_t node)
{
    const uint64_t v = compute<false>(plan_->nodes[node]);
    memo_[node] = Slot{v, epoch_};
    return v;
}

inline void
FunctionalSimulator::evalCone(const EvalPlan::Step &step)
{
    const uint32_t *cone = plan_->cones.data();
    const EvalPlan::Node *nodes = plan_->nodes.data();
    Slot *memo = memo_.data();
    const uint64_t epoch = epoch_;
    for (uint32_t k = step.coneBegin; k < step.coneEnd; ++k)
        memo[cone[k]] = Slot{compute<true>(nodes[cone[k]]), epoch};
}

bool
FunctionalSimulator::runVcycle(RunResult &result,
                               std::vector<uint8_t> *signature)
{
    using Kind = EvalPlan::Step::Kind;
    const EvalPlan &plan = *plan_;
    const lang::Program &program = plan.program;
    if (signature)
        signature->assign(plan.assigns.size() + plan.emits.size(), 0);

    // New virtual cycle: invalidate the memo, then walk the statement
    // tree, evaluating the cones of the conditions on the path taken
    // and of the Actions steps it opens. Once a loop body is entered (a
    // loop cycle), out-of-loop actions are dropped: only loop bodies
    // run, and the input token is not consumed.
    ++epoch_;
    bool while_active = false;
    const EvalPlan::Step *walk = plan.walk.data();
    const uint32_t steps = uint32_t(plan.walk.size());
    uint32_t *opened = opened_.data();
    uint32_t opens = 0;
    for (uint32_t pc = 0; pc < steps;) {
        const EvalPlan::Step &step = walk[pc];
        const Kind kind = step.kind;
        if (kind == Kind::Test || kind == Kind::While) {
            evalCone(step);
            if (memo_[step.cond].value == 0) {
                pc = step.target;
                continue;
            }
            if (kind == Kind::While && !while_active) {
                while_active = true;
                opens = 0;
            }
        } else if (kind == Kind::Jump) {
            pc = step.target;
            continue;
        } else if (kind == Kind::LoopExit) {
            if (while_active)
                break;
        } else if (kind == Kind::LoopActions || !while_active) {
            evalCone(step);
            opened[opens++] = pc;
        }
        ++pc;
    }

    // Check and apply the open actions: reads, then assignments, then
    // emits, each in lang::flatten's order, so the first violation a
    // cycle reports is the flattened program's. BRAM read accounting:
    // at most one distinct address per BRAM.
    std::fill(readAddr_.begin(), readAddr_.end(), -1);
    for (uint32_t k = 0; k < opens; ++k) {
        const EvalPlan::Range &range = walk[opened[k]].reads;
        for (uint32_t r = range.begin; r < range.end; ++r) {
            const auto &occ = plan.bramReads[r];
            if (occ.gate != EvalPlan::kNone && value(occ.gate) == 0)
                continue;
            const auto &bram = program.bram(occ.bramId);
            uint64_t addr = value(occ.addr);
            if (addr >= uint64_t(bram.elements)) {
                violation("BRAM " + bram.name + " read address " +
                          std::to_string(addr) + " out of range (" +
                          std::to_string(bram.elements) + " elements)");
            }
            if (readAddr_[occ.bramId] >= 0 &&
                readAddr_[occ.bramId] != int64_t(addr)) {
                violation("BRAM " + bram.name +
                          " read at two addresses in one virtual cycle (" +
                          std::to_string(readAddr_[occ.bramId]) + " and " +
                          std::to_string(addr) + ")");
            }
            readAddr_[occ.bramId] = int64_t(addr);
            if (prevWriteAddr_[occ.bramId] == int64_t(addr))
                result.usedBramForwarding = true;
        }
    }

    // Gather assignments (committed only at the end of the cycle).
    writes_.clear();
    std::fill(bramWriteAddr_.begin(), bramWriteAddr_.end(), -1);
    for (uint32_t k = 0; k < opens; ++k) {
        const EvalPlan::Range &range = walk[opened[k]].assigns;
        for (uint32_t a = range.begin; a < range.end; ++a) {
            const auto &assign = plan.assigns[a];
            if (signature)
                (*signature)[a] = 1;
            uint64_t index = 0;
            switch (assign.kind) {
              case LValue::Kind::Reg:
                if (writeEpoch_[assign.base] == epoch_) {
                    violation("register " +
                              program.reg(assign.stateId).name +
                              " assigned twice in one virtual cycle");
                }
                writeEpoch_[assign.base] = epoch_;
                break;
              case LValue::Kind::VecElem: {
                const auto &vreg = program.vreg(assign.stateId);
                index = value(assign.index);
                if (index >= assign.elements) {
                    violation("vector register " + vreg.name +
                              " write index " + std::to_string(index) +
                              " out of range");
                }
                if (writeEpoch_[assign.base + index] == epoch_) {
                    violation("vector register " + vreg.name +
                              " element " + std::to_string(index) +
                              " assigned twice in one virtual cycle");
                }
                writeEpoch_[assign.base + index] = epoch_;
                break;
              }
              case LValue::Kind::BramElem: {
                const auto &bram = program.bram(assign.stateId);
                index = value(assign.index);
                if (index >= assign.elements) {
                    violation("BRAM " + bram.name + " write address " +
                              std::to_string(index) + " out of range");
                }
                if (bramWriteAddr_[assign.stateId] >= 0) {
                    violation("BRAM " + bram.name +
                              " written twice in one virtual cycle");
                }
                bramWriteAddr_[assign.stateId] = int64_t(index);
                break;
              }
            }
            writes_.push_back(
                PendingWrite{assign.base + index,
                             truncTo(value(assign.value), assign.width)});
        }
    }

    // Emits: at most one per virtual cycle.
    bool emitted = false;
    for (uint32_t k = 0; k < opens; ++k) {
        const EvalPlan::Range &range = walk[opened[k]].emits;
        for (uint32_t m = range.begin; m < range.end; ++m) {
            if (emitted)
                violation("multiple emits in one virtual cycle");
            if (signature)
                (*signature)[plan.assigns.size() + m] = 1;
            emitted = true;
            result.output.appendBits(value(plan.emits[m].value),
                                     program.outputTokenWidth);
            ++result.emits;
        }
    }

    // Commit.
    for (const auto &write : writes_)
        state_[write.offset] = write.value;
    prevWriteAddr_.swap(bramWriteAddr_);

    ++result.vcycles;
    return !while_active;
}

void
FunctionalSimulator::beginStream(const BitBuffer &input)
{
    ownedInput_ = input;
    begin(ownedInput_);
}

void
FunctionalSimulator::begin(const BitBuffer &input)
{
    const lang::Program &program = plan_->program;
    if (input.sizeBits() % program.inputTokenWidth != 0) {
        fatal(program.name, ": input stream of ", input.sizeBits(),
              " bits is not a whole number of ", program.inputTokenWidth,
              "-bit tokens");
    }
    reset();
    input_ = &input;
    tokenCount_ = input.sizeBits() / program.inputTokenWidth;
    result_ = RunResult();
    vcyclesThisToken_ = 0;
    if (tokenCount_ == 0) {
        phase_ = Phase::Cleanup;
        streamFinished_ = true;
        currentToken_ = 0;
    } else {
        phase_ = Phase::Tokens;
        currentToken_ = input.readBits(0, program.inputTokenWidth);
    }
}

uint8_t
FunctionalSimulator::stepVcycle(std::vector<uint8_t> *signature)
{
    const lang::Program &program = plan_->program;
    if (phase_ == Phase::Done)
        fatal(program.name, ": stepVcycle after stream completion");
    uint64_t emits_before = result_.emits;
    bool consumed = runVcycle(result_, signature);
    uint8_t flags = 0;
    if (consumed)
        flags |= kVcycleConsumesToken;
    if (result_.emits != emits_before)
        flags |= kVcycleEmits;

    if (!consumed) {
        if (++vcyclesThisToken_ > options_.maxVcyclesPerToken) {
            fatal(program.name, ": while loop exceeded ",
                  options_.maxVcyclesPerToken,
                  " virtual cycles for one token (infinite loop?)");
        }
        return flags;
    }
    vcyclesThisToken_ = 0;
    if (phase_ == Phase::Tokens) {
        ++result_.tokens;
        ++tokenIndex_;
        if (tokenIndex_ < tokenCount_) {
            currentToken_ = input_->readBits(
                tokenIndex_ * program.inputTokenWidth,
                program.inputTokenWidth);
        } else {
            // Stream-finished cleanup: the logic runs once more with a
            // dummy token, including any while iterations it triggers.
            phase_ = Phase::Cleanup;
            streamFinished_ = true;
            currentToken_ = 0;
        }
    } else {
        phase_ = Phase::Done;
    }
    return flags;
}

RunResult
FunctionalSimulator::run(const BitBuffer &input,
                         std::vector<uint8_t> *flags)
{
    // Reads `input` in place: never leave the stepping interface on it.
    begin(input);
    // Every token takes at least one virtual cycle, plus the cleanup.
    if (flags)
        flags->reserve(flags->size() + tokenCount_ + 1);
    try {
        while (!streamDone()) {
            const uint8_t f = stepVcycle();
            if (flags)
                flags->push_back(f);
        }
    } catch (...) {
        phase_ = Phase::Done;
        input_ = nullptr;
        throw;
    }
    input_ = nullptr;
    return std::move(result_);
}

} // namespace sim
} // namespace fleet
