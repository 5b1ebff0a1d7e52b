#include "sim/simulator.h"

#include <algorithm>

#include "util/bits.h"
#include "util/logging.h"

namespace fleet {
namespace sim {

using lang::Expr;
using lang::ExprKind;
using lang::LValue;

FunctionalSimulator::FunctionalSimulator(const lang::Program &program,
                                         SimOptions options)
    : FunctionalSimulator(
          program,
          std::make_shared<const lang::FlatProgram>(lang::flatten(program)),
          options)
{
}

FunctionalSimulator::FunctionalSimulator(
    const lang::Program &program,
    std::shared_ptr<const lang::FlatProgram> flat, SimOptions options)
    : program_(program), flat_(std::move(flat)), options_(options)
{
    reset();
}

void
FunctionalSimulator::reset()
{
    state_.regs.clear();
    for (const auto &reg : program_.regs)
        state_.regs.push_back(reg.init);
    state_.vregs.clear();
    for (const auto &vreg : program_.vregs) {
        state_.vregs.emplace_back(vreg.elements, vreg.init);
    }
    state_.brams.clear();
    for (const auto &bram : program_.brams)
        state_.brams.emplace_back(bram.elements, 0);
    prevWriteAddr_.assign(program_.brams.size(), -1);
    currentToken_ = 0;
    streamFinished_ = false;
    tokenIndex_ = 0;
}

void
FunctionalSimulator::violation(const std::string &message) const
{
    fatal(program_.name, ": restriction violation at ",
          streamFinished_ ? "cleanup cycle" : "token",
          streamFinished_ ? std::string() : " " + std::to_string(tokenIndex_),
          ": ", message);
}

uint64_t
FunctionalSimulator::eval(const Expr &e) const
{
    // Leaves are cheaper to recompute than to cache.
    switch (e->kind) {
      case ExprKind::Const:
      case ExprKind::Input:
      case ExprKind::StreamFinished:
      case ExprKind::RegRead:
        return evalUncached(e);
      default:
        break;
    }
    int64_t id = lang::exprEvalId(e.get());
    if (uint64_t(id) >= evalCache_.size()) {
        evalCache_.resize(id + 64, 0);
        evalEpochs_.resize(id + 64, 0);
    }
    if (evalEpochs_[id] == evalEpoch_)
        return evalCache_[id];
    uint64_t value = evalUncached(e);
    evalEpochs_[id] = evalEpoch_;
    evalCache_[id] = value;
    return value;
}

uint64_t
FunctionalSimulator::evalUncached(const Expr &e) const
{
    switch (e->kind) {
      case ExprKind::Const:
        return e->value;
      case ExprKind::Input:
        return currentToken_;
      case ExprKind::StreamFinished:
        return streamFinished_ ? 1 : 0;
      case ExprKind::RegRead:
        return state_.regs[e->stateId];
      case ExprKind::VecRegRead: {
        uint64_t idx = eval(e->a);
        const auto &vec = state_.vregs[e->stateId];
        // Out-of-range reads return 0, matching the hardware mux tree's
        // don't-care behaviour.
        return idx < vec.size() ? vec[idx] : 0;
      }
      case ExprKind::BramRead: {
        uint64_t addr = eval(e->a);
        const auto &mem = state_.brams[e->stateId];
        return addr < mem.size() ? mem[addr] : 0;
      }
      case ExprKind::Bin:
        return evalBinOp(e->binOp, eval(e->a), e->a->width, eval(e->b),
                         e->b->width);
      case ExprKind::Un:
        return evalUnOp(e->unOp, eval(e->a), e->a->width);
      case ExprKind::Mux:
        // Only the selected leg is evaluated; read accounting is handled
        // separately via the flattened BramReadOcc list, whose gating
        // conditions replicate exactly this mux-path behaviour.
        return eval(e->c) != 0 ? eval(e->a) : eval(e->b);
      case ExprKind::Slice:
        return bitsOf(eval(e->a), e->sliceLo, e->width);
      case ExprKind::Concat:
        return (eval(e->a) << e->b->width) | eval(e->b);
    }
    panic("FunctionalSimulator::eval: unknown expression kind");
}

bool
FunctionalSimulator::evalGate(const Expr &cond, bool inside_while,
                              bool while_active) const
{
    if (!inside_while && while_active)
        return false;
    return !cond || eval(cond) != 0;
}

bool
FunctionalSimulator::runVcycle(RunResult &result,
                               std::vector<uint8_t> *signature)
{
    if (signature)
        signature->assign(flat_->assigns.size() + flat_->emits.size(), 0);

    // New virtual cycle: invalidate the expression memo.
    ++evalEpoch_;

    // 1. Evaluate while conditions: while any holds, only loop bodies run
    //    and the input token is not consumed.
    bool while_active = false;
    for (const auto &cond : flat_->whileConds)
        while_active = while_active || eval(cond) != 0;

    // 2. BRAM read accounting: at most one distinct address per BRAM.
    std::vector<int64_t> read_addr(program_.brams.size(), -1);
    for (const auto &occ : flat_->bramReads) {
        if (!evalGate(occ.cond, occ.insideWhile, while_active))
            continue;
        const auto &bram = program_.bram(occ.bramId);
        uint64_t addr = eval(occ.addr);
        if (addr >= uint64_t(bram.elements)) {
            violation("BRAM " + bram.name + " read address " +
                      std::to_string(addr) + " out of range (" +
                      std::to_string(bram.elements) + " elements)");
        }
        if (read_addr[occ.bramId] >= 0 &&
            read_addr[occ.bramId] != int64_t(addr)) {
            violation("BRAM " + bram.name +
                      " read at two addresses in one virtual cycle (" +
                      std::to_string(read_addr[occ.bramId]) + " and " +
                      std::to_string(addr) + ")");
        }
        read_addr[occ.bramId] = int64_t(addr);
        if (prevWriteAddr_[occ.bramId] == int64_t(addr))
            result.usedBramForwarding = true;
    }

    // 3. Gather assignments (committed only at the end of the cycle).
    struct PendingWrite
    {
        LValue::Kind kind;
        int stateId;
        uint64_t index;
        uint64_t value;
    };
    std::vector<PendingWrite> writes;
    std::vector<bool> reg_written(program_.regs.size(), false);
    std::vector<int64_t> bram_write_addr(program_.brams.size(), -1);
    // Vector-register elements allow concurrent writes to distinct
    // elements; track (id, index) pairs.
    std::vector<std::pair<int, uint64_t>> vreg_written;

    for (size_t a = 0; a < flat_->assigns.size(); ++a) {
        const auto &assign = flat_->assigns[a];
        if (!evalGate(assign.cond, assign.insideWhile, while_active))
            continue;
        if (signature)
            (*signature)[a] = 1;
        PendingWrite write;
        write.kind = assign.target.kind;
        write.stateId = assign.target.stateId;
        write.index = 0;
        switch (assign.target.kind) {
          case LValue::Kind::Reg:
            if (reg_written[write.stateId]) {
                violation("register " + program_.reg(write.stateId).name +
                          " assigned twice in one virtual cycle");
            }
            reg_written[write.stateId] = true;
            break;
          case LValue::Kind::VecElem: {
            const auto &vreg = program_.vreg(write.stateId);
            write.index = eval(assign.target.index);
            if (write.index >= uint64_t(vreg.elements)) {
                violation("vector register " + vreg.name + " write index " +
                          std::to_string(write.index) + " out of range");
            }
            auto key = std::make_pair(write.stateId, write.index);
            if (std::find(vreg_written.begin(), vreg_written.end(), key) !=
                vreg_written.end()) {
                violation("vector register " + vreg.name + " element " +
                          std::to_string(write.index) +
                          " assigned twice in one virtual cycle");
            }
            vreg_written.push_back(key);
            break;
          }
          case LValue::Kind::BramElem: {
            const auto &bram = program_.bram(write.stateId);
            write.index = eval(assign.target.index);
            if (write.index >= uint64_t(bram.elements)) {
                violation("BRAM " + bram.name + " write address " +
                          std::to_string(write.index) + " out of range");
            }
            if (bram_write_addr[write.stateId] >= 0) {
                violation("BRAM " + bram.name +
                          " written twice in one virtual cycle");
            }
            bram_write_addr[write.stateId] = int64_t(write.index);
            break;
          }
        }
        uint64_t value = eval(assign.value);
        int target_width = 0;
        switch (assign.target.kind) {
          case LValue::Kind::Reg:
            target_width = program_.reg(write.stateId).width;
            break;
          case LValue::Kind::VecElem:
            target_width = program_.vreg(write.stateId).width;
            break;
          case LValue::Kind::BramElem:
            target_width = program_.bram(write.stateId).width;
            break;
        }
        write.value = truncTo(value, target_width);
        writes.push_back(write);
    }

    // 4. Emits: at most one per virtual cycle.
    bool emitted = false;
    for (size_t m = 0; m < flat_->emits.size(); ++m) {
        const auto &emit = flat_->emits[m];
        if (!evalGate(emit.cond, emit.insideWhile, while_active))
            continue;
        if (emitted)
            violation("multiple emits in one virtual cycle");
        if (signature)
            (*signature)[flat_->assigns.size() + m] = 1;
        emitted = true;
        result.output.appendBits(eval(emit.value),
                                 program_.outputTokenWidth);
        ++result.emits;
    }

    // 5. Commit.
    for (const auto &write : writes) {
        switch (write.kind) {
          case LValue::Kind::Reg:
            state_.regs[write.stateId] = write.value;
            break;
          case LValue::Kind::VecElem:
            state_.vregs[write.stateId][write.index] = write.value;
            break;
          case LValue::Kind::BramElem:
            state_.brams[write.stateId][write.index] = write.value;
            break;
        }
    }
    prevWriteAddr_ = bram_write_addr;

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
    if (input.sizeBits() % program_.inputTokenWidth != 0) {
        fatal(program_.name, ": input stream of ", input.sizeBits(),
              " bits is not a whole number of ", program_.inputTokenWidth,
              "-bit tokens");
    }
    reset();
    input_ = input;
    tokenCount_ = input.sizeBits() / program_.inputTokenWidth;
    result_ = RunResult();
    vcyclesThisToken_ = 0;
    if (tokenCount_ == 0) {
        phase_ = Phase::Cleanup;
        streamFinished_ = true;
        currentToken_ = 0;
    } else {
        phase_ = Phase::Tokens;
        currentToken_ = input_.readBits(0, program_.inputTokenWidth);
    }
}

uint8_t
FunctionalSimulator::stepVcycle(std::vector<uint8_t> *signature)
{
    if (phase_ == Phase::Done)
        fatal(program_.name, ": stepVcycle after stream completion");
    uint64_t emits_before = result_.emits;
    bool consumed = runVcycle(result_, signature);
    uint8_t flags = 0;
    if (consumed)
        flags |= kVcycleConsumesToken;
    if (result_.emits != emits_before)
        flags |= kVcycleEmits;

    if (!consumed) {
        if (++vcyclesThisToken_ > options_.maxVcyclesPerToken) {
            fatal(program_.name, ": while loop exceeded ",
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
            currentToken_ = input_.readBits(
                tokenIndex_ * program_.inputTokenWidth,
                program_.inputTokenWidth);
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
    beginStream(input);
    while (!streamDone())
        stepVcycle();
    return std::move(result_);
}

} // namespace sim
} // namespace fleet
