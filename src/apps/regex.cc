#include "apps/regex.h"

#include "lang/builder.h"
#include "util/logging.h"

namespace fleet {
namespace apps {

using lang::ProgramBuilder;
using lang::Value;

lang::Program
RegexApp::program() const
{
    const int positions = nfa_.numPositions();
    ProgramBuilder b("Regex", 8, 32);

    std::vector<Value> state;
    for (int p = 0; p < positions; ++p)
        state.push_back(
            b.reg(std::string("s").append(std::to_string(p)), 1, 0));
    Value index = b.reg("index", 32, 0);

    // Character-class tests as comparator trees on the input token.
    auto class_match = [&](int p) {
        Value match = Value::lit(0, 1);
        for (auto [lo, hi] : classIntervals(nfa_.positionClass[p])) {
            Value term = lo == hi
                             ? (b.input() == Value::lit(lo, 8))
                             : (b.input() >= Value::lit(lo, 8) &&
                                b.input() <= Value::lit(hi, 8));
            match = match || term;
        }
        return match;
    };

    // Precompute predecessor lists: pred(p) = { q : p in follow(q) }.
    std::vector<std::vector<int>> preds(positions);
    for (int q = 0; q < positions; ++q)
        for (int p : nfa_.follow[q])
            preds[p].push_back(q);

    b.if_(!b.streamFinished(), [&] {
        std::vector<Value> next;
        for (int p = 0; p < positions; ++p) {
            Value feed = nfa_.first[p] ? Value::lit(1, 1) : Value::lit(0, 1);
            for (int q : preds[p])
                feed = feed || state[q];
            next.push_back(class_match(p) && feed);
        }
        Value any_match = Value::lit(0, 1);
        for (int p = 0; p < positions; ++p) {
            if (nfa_.last[p])
                any_match = any_match || next[p];
            b.assign(state[p], next[p]);
        }
        b.if_(any_match, [&] { b.emit(index); });
        b.assign(index, (index + 1).resize(32));
    });

    return b.finish();
}

BitBuffer
RegexApp::generateStream(Rng &rng, uint64_t approx_bytes) const
{
    // Log-like lines with emails sprinkled in.
    static const char *kWords[] = {"request", "from", "user", "at",
                                   "warning", "failed", "login", "for"};
    static const char *kUsers[] = {"alice", "bob", "carol.d", "eve+spam"};
    static const char *kHosts[] = {"example.com", "mail.net",
                                   "lists.acm.org"};
    std::string text;
    while (text.size() < approx_bytes) {
        int words = 3 + static_cast<int>(rng.nextBelow(8));
        for (int w = 0; w < words; ++w) {
            if (rng.nextChance(1, 12)) {
                text += kUsers[rng.nextBelow(4)];
                text += '@';
                text += kHosts[rng.nextBelow(3)];
            } else {
                text += kWords[rng.nextBelow(8)];
            }
            text += ' ';
        }
        text += '\n';
    }
    text.resize(approx_bytes);
    return BitBuffer::fromString(text);
}

BitBuffer
RegexApp::golden(const BitBuffer &stream) const
{
    BitBuffer out;
    std::vector<bool> state(nfa_.numPositions(), false);
    uint64_t tokens = stream.sizeBits() / 8;
    for (uint64_t i = 0; i < tokens; ++i) {
        uint8_t c = uint8_t(stream.readBits(i * 8, 8));
        if (nfa_.step(state, c))
            out.appendBits(i, 32);
    }
    return out;
}

} // namespace apps
} // namespace fleet
