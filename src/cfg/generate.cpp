#include "cfg/generate.hpp"

#include <algorithm>
#include <deque>
#include <set>

namespace agenp::cfg {

GenerateResult generate_strings(const Grammar& grammar, const GenerateOptions& options) {
    GenerateResult result;
    // BFS over sentential forms, expanding the leftmost nonterminal. BFS
    // (rather than DFS) yields shorter sentences first and remains fair in
    // the presence of recursion.
    std::deque<std::vector<GSym>> queue;
    std::set<std::string> seen_sentences;
    std::set<std::string> seen_forms;
    queue.push_back({GSym::nonterm(grammar.start())});

    auto form_key = [](const std::vector<GSym>& form) {
        std::string key;
        for (const auto& s : form) {
            key += s.terminal ? 't' : 'n';
            key += s.name.str();
            key += '\x1f';
        }
        return key;
    };

    std::size_t expansions = 0;
    while (!queue.empty()) {
        if (result.strings.size() >= options.max_strings || expansions >= options.max_expansions) {
            result.truncated = true;
            break;
        }
        auto form = std::move(queue.front());
        queue.pop_front();
        ++expansions;

        auto nt_it = std::find_if(form.begin(), form.end(), [](const GSym& s) { return !s.terminal; });
        if (nt_it == form.end()) {
            TokenString sentence;
            for (const auto& s : form) sentence.push_back(s.name);
            if (seen_sentences.insert(detokenize(sentence)).second) {
                result.strings.push_back(std::move(sentence));
            }
            continue;
        }

        auto nt_index = static_cast<std::size_t>(nt_it - form.begin());
        for (int p : grammar.productions_for(nt_it->name)) {
            const auto& prod = grammar.production(p);
            std::vector<GSym> next;
            next.reserve(form.size() - 1 + prod.rhs.size());
            next.insert(next.end(), form.begin(), form.begin() + static_cast<std::ptrdiff_t>(nt_index));
            next.insert(next.end(), prod.rhs.begin(), prod.rhs.end());
            next.insert(next.end(), form.begin() + static_cast<std::ptrdiff_t>(nt_index) + 1, form.end());
            if (next.size() > options.max_length) {
                // The form may still derive a sentence, so the list is
                // incomplete: say so, or a caller that trusts it as the
                // whole language denies what it left out.
                result.truncated = true;
                continue;
            }
            if (seen_forms.insert(form_key(next)).second) queue.push_back(std::move(next));
        }
    }
    return result;
}

}  // namespace agenp::cfg
