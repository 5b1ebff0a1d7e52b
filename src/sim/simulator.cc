#include "sim/simulator.h"

#include <algorithm>

#include "util/bits.h"
#include "util/logging.h"

namespace fleet {
namespace sim {

using lang::ExprKind;
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
        if (plan_ref.nodes[i].kind == ExprKind::Const)
            memo_[i] = Slot{plan_ref.nodes[i].imm, ~uint64_t(0)};
    }
    const size_t brams = plan_ref.program.brams.size();
    readAddr_.resize(brams);
    bramWriteAddr_.resize(brams);
    regWriteEpoch_.assign(plan_ref.program.regs.size(), 0);
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

uint64_t
FunctionalSimulator::evalNode(uint32_t node)
{
    const EvalPlan::Node &n = plan_->nodes[node];
    uint64_t v = 0;
    switch (n.kind) {
      case ExprKind::Const:
        v = n.imm;
        break;
      case ExprKind::Input:
        v = currentToken_;
        break;
      case ExprKind::StreamFinished:
        v = streamFinished_ ? 1 : 0;
        break;
      case ExprKind::RegRead:
        v = state_[n.imm];
        break;
      case ExprKind::VecRegRead:
      case ExprKind::BramRead: {
        // Out-of-range reads return 0, matching the hardware mux tree's
        // don't-care behaviour; gated BRAM reads are range-checked
        // separately via the plan's bramReads.
        uint64_t idx = value(n.a);
        v = idx < n.aux ? state_[n.imm + idx] : 0;
        break;
      }
      case ExprKind::Bin:
        v = evalBinOp(BinOp(n.op), value(n.a), n.aWidth, value(n.b),
                      n.bWidth);
        break;
      case ExprKind::Un:
        v = evalUnOp(UnOp(n.op), value(n.a), n.aWidth);
        break;
      case ExprKind::Mux:
        // Only the selected leg is evaluated; read accounting is handled
        // separately via the plan's bramReads, whose gating conditions
        // replicate exactly this mux-path behaviour.
        v = value(n.c) != 0 ? value(n.a) : value(n.b);
        break;
      case ExprKind::Slice:
        v = (value(n.a) >> n.imm) & n.aux;
        break;
      case ExprKind::Concat:
        v = (value(n.a) << n.bWidth) | value(n.b);
        break;
    }
    memo_[node] = Slot{v, epoch_};
    return v;
}

inline bool
FunctionalSimulator::gateOpen(const EvalPlan::Gate &gate, bool while_active)
{
    if (!gate.insideWhile && while_active)
        return false;
    return gate.cond == EvalPlan::kNone || value(gate.cond) != 0;
}

bool
FunctionalSimulator::runVcycle(RunResult &result,
                               std::vector<uint8_t> *signature)
{
    const EvalPlan &plan = *plan_;
    const lang::Program &program = plan.program;
    if (signature)
        signature->assign(plan.assigns.size() + plan.emits.size(), 0);

    // New virtual cycle: invalidate the memo, then evaluate the gate
    // cone every cycle needs, in topological order.
    ++epoch_;
    for (uint32_t node : plan.eager)
        value(node);

    // 1. While conditions: while any holds, only loop bodies run and the
    //    input token is not consumed.
    bool while_active = false;
    for (uint32_t cond : plan.whileConds) {
        if (value(cond) != 0) {
            while_active = true;
            break;
        }
    }
    if (!while_active) {
        for (uint32_t node : plan.eagerOutsideWhile)
            value(node);
    }

    // 2. BRAM read accounting: at most one distinct address per BRAM.
    std::fill(readAddr_.begin(), readAddr_.end(), -1);
    for (const auto &occ : plan.bramReads) {
        if (!gateOpen(occ.gate, while_active))
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

    // 3. Gather assignments (committed only at the end of the cycle).
    writes_.clear();
    vregWritten_.clear();
    std::fill(bramWriteAddr_.begin(), bramWriteAddr_.end(), -1);
    for (size_t a = 0; a < plan.assigns.size(); ++a) {
        const auto &assign = plan.assigns[a];
        if (!gateOpen(assign.gate, while_active))
            continue;
        if (signature)
            (*signature)[a] = 1;
        uint64_t index = 0;
        switch (assign.kind) {
          case LValue::Kind::Reg:
            if (regWriteEpoch_[assign.stateId] == epoch_) {
                violation("register " + program.reg(assign.stateId).name +
                          " assigned twice in one virtual cycle");
            }
            regWriteEpoch_[assign.stateId] = epoch_;
            break;
          case LValue::Kind::VecElem: {
            const auto &vreg = program.vreg(assign.stateId);
            index = value(assign.index);
            if (index >= assign.elements) {
                violation("vector register " + vreg.name + " write index " +
                          std::to_string(index) + " out of range");
            }
            if (std::find(vregWritten_.begin(), vregWritten_.end(),
                          assign.base + index) != vregWritten_.end()) {
                violation("vector register " + vreg.name + " element " +
                          std::to_string(index) +
                          " assigned twice in one virtual cycle");
            }
            vregWritten_.push_back(assign.base + index);
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
        writes_.push_back(PendingWrite{
            assign.base + index, truncTo(value(assign.value), assign.width)});
    }

    // 4. Emits: at most one per virtual cycle.
    bool emitted = false;
    for (size_t m = 0; m < plan.emits.size(); ++m) {
        const auto &emit = plan.emits[m];
        if (!gateOpen(emit.gate, while_active))
            continue;
        if (emitted)
            violation("multiple emits in one virtual cycle");
        if (signature)
            (*signature)[plan.assigns.size() + m] = 1;
        emitted = true;
        result.output.appendBits(value(emit.value),
                                 program.outputTokenWidth);
        ++result.emits;
    }

    // 5. Commit.
    for (const auto &write : writes_)
        state_[write.offset] = write.value;
    prevWriteAddr_.swap(bramWriteAddr_);

    ++result.vcycles;
    if (options_.recordTrace) {
        uint8_t flags = 0;
        if (!while_active)
            flags |= kVcycleConsumesToken;
        if (emitted)
            flags |= kVcycleEmits;
        result.trace.push_back(flags);
    }
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
    // Every token takes at least one virtual cycle, plus the cleanup.
    if (options_.recordTrace)
        result_.trace.reserve(tokenCount_ + 1);
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
FunctionalSimulator::run(const BitBuffer &input)
{
    // Reads `input` in place: never leave the stepping interface on it.
    begin(input);
    try {
        while (!streamDone())
            stepVcycle();
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
