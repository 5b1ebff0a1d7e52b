#include "baseline/simt.h"

#include <map>
#include <memory>
#include <unordered_map>

#include "sim/plan.h"
#include "sim/simulator.h"
#include "util/bits.h"

namespace fleet {
namespace baseline {

namespace {

/** DAG-aware node count of an expression set (shared subtrees counted
 * once, as a compiler would emit them once). Plan nodes are the
 * program's distinct expression nodes. */
void
countDag(const sim::EvalPlan &plan, uint32_t node,
         std::vector<uint8_t> &visited, uint64_t &count)
{
    if (node == sim::EvalPlan::kNone || visited[node])
        return;
    visited[node] = 1;
    ++count;
    const auto &n = plan.nodes[node];
    countDag(plan, n.a, visited, count);
    countDag(plan, n.b, visited, count);
    countDag(plan, n.c, visited, count);
}

} // namespace

SimtResult
simulateWarps(const lang::Program &program,
              const std::vector<BitBuffer> &streams,
              const SimtParams &params)
{
    SimtResult result;
    // One plan for every lane of every warp.
    auto plan = std::make_shared<const sim::EvalPlan>(program);
    const size_t num_assigns = plan->assigns.size();
    const size_t num_actions = num_assigns + plan->emits.size();

    // Expression roots of each action, for signature costing.
    std::vector<std::vector<uint32_t>> action_exprs(num_actions);
    for (size_t a = 0; a < num_assigns; ++a) {
        const auto &assign = plan->assigns[a];
        action_exprs[a] = {assign.gate.cond, assign.value, assign.index};
    }
    for (size_t m = 0; m < plan->emits.size(); ++m) {
        const auto &emit = plan->emits[m];
        action_exprs[num_assigns + m] = {emit.gate.cond, emit.value};
    }

    std::unordered_map<std::string, uint64_t> cost_memo;
    auto signature_cost = [&](const std::vector<uint8_t> &sig) {
        std::string key(sig.begin(), sig.end());
        auto it = cost_memo.find(key);
        if (it != cost_memo.end())
            return it->second;
        std::vector<uint8_t> visited(plan->size(), 0);
        uint64_t count = 0;
        for (size_t a = 0; a < num_actions; ++a) {
            if (!sig[a])
                continue;
            for (uint32_t expr : action_exprs[a])
                countDag(*plan, expr, visited, count);
            ++count; // The commit/emit itself.
            // Local-array writes are read-modify-write with bank
            // conflicts on a GPU.
            if (a < num_assigns &&
                plan->assigns[a].kind == lang::LValue::Kind::BramElem) {
                count += params.bramWriteExtraInsts;
            }
        }
        count += params.stepOverheadInsts;
        cost_memo.emplace(std::move(key), count);
        return count;
    };

    for (const auto &stream : streams)
        result.inputBytes += ceilDiv(stream.sizeBits(), 8);

    for (size_t base = 0; base < streams.size();
         base += size_t(params.warpSize)) {
        size_t lanes = std::min<size_t>(params.warpSize,
                                        streams.size() - base);
        std::vector<std::unique_ptr<sim::FunctionalSimulator>> sims;
        for (size_t l = 0; l < lanes; ++l) {
            sims.push_back(
                std::make_unique<sim::FunctionalSimulator>(plan));
            sims.back()->beginStream(streams[base + l]);
        }

        std::vector<uint8_t> sig;
        std::vector<uint8_t> union_sig;
        while (true) {
            // One warp step: every unfinished lane executes one virtual
            // cycle; divergent signature groups serialize.
            std::map<std::string, uint64_t> groups;
            union_sig.assign(num_actions, 0);
            bool any = false;
            for (size_t l = 0; l < lanes; ++l) {
                if (sims[l]->streamDone())
                    continue;
                any = true;
                sims[l]->stepVcycle(&sig);
                groups[std::string(sig.begin(), sig.end())]++;
                for (size_t a = 0; a < num_actions; ++a)
                    union_sig[a] |= sig[a];
            }
            if (!any)
                break;
            ++result.warpSteps;
            for (const auto &[key, count] : groups) {
                (void)count;
                std::vector<uint8_t> group_sig(key.begin(), key.end());
                result.warpInstructions += signature_cost(group_sig);
            }
            result.convergedInstructions += signature_cost(union_sig);
        }
    }
    return result;
}

} // namespace baseline
} // namespace fleet
