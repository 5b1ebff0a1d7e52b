#include "baseline/simt.h"

#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "lang/flatten.h"
#include "sim/plan.h"
#include "sim/simulator.h"
#include "util/bits.h"

namespace fleet {
namespace baseline {

namespace {

/** DAG-aware node count of an expression set (shared subtrees counted
 * once, as a compiler would emit them once). It walks the program's
 * own expression nodes, not the simulator's plan, which folds and
 * merges them: the instruction count models the source program. */
void
countDag(const lang::ExprNode *node,
         std::unordered_set<const lang::ExprNode *> &visited,
         uint64_t &count)
{
    if (!node || !visited.insert(node).second)
        return;
    ++count;
    countDag(node->a.get(), visited, count);
    countDag(node->b.get(), visited, count);
    countDag(node->c.get(), visited, count);
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
    // Expression roots of each action, for signature costing, from the
    // flattened program (actions in the plan's order: assignments, then
    // emits). `flat` owns the conjoined conditions the roots point to.
    const lang::FlatProgram flat = lang::flatten(program);
    const size_t num_assigns = flat.assigns.size();
    const size_t num_actions = num_assigns + flat.emits.size();
    std::vector<std::vector<const lang::ExprNode *>> action_exprs(
        num_actions);
    for (size_t a = 0; a < num_assigns; ++a) {
        const auto &assign = flat.assigns[a];
        action_exprs[a] = {assign.cond.get(), assign.value.get(),
                           assign.target.index.get()};
    }
    for (size_t m = 0; m < flat.emits.size(); ++m) {
        const auto &emit = flat.emits[m];
        action_exprs[num_assigns + m] = {emit.cond.get(), emit.value.get()};
    }

    std::unordered_map<std::string, uint64_t> cost_memo;
    auto signature_cost = [&](const std::vector<uint8_t> &sig) {
        std::string key(sig.begin(), sig.end());
        auto it = cost_memo.find(key);
        if (it != cost_memo.end())
            return it->second;
        std::unordered_set<const lang::ExprNode *> visited;
        uint64_t count = 0;
        for (size_t a = 0; a < num_actions; ++a) {
            if (!sig[a])
                continue;
            for (const lang::ExprNode *expr : action_exprs[a])
                countDag(expr, visited, count);
            ++count; // The commit/emit itself.
            // Local-array writes are read-modify-write with bank
            // conflicts on a GPU.
            if (a < num_assigns &&
                flat.assigns[a].target.kind ==
                    lang::LValue::Kind::BramElem) {
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
