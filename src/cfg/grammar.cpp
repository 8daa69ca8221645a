#include "cfg/grammar.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace agenp::cfg {

std::string Production::to_string() const {
    std::string out(lhs.str());
    out += " ->";
    for (const auto& s : rhs) {
        out += ' ';
        if (s.terminal) {
            out += '"';
            out += s.name.str();
            out += '"';
        } else {
            out += s.name.str();
        }
    }
    return out;
}

TokenString tokenize(std::string_view text) {
    TokenString tokens;
    for (const auto& w : util::split_ws(text)) tokens.emplace_back(w);
    return tokens;
}

std::string detokenize(const TokenString& tokens) {
    std::string out;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        if (i > 0) out += ' ';
        out += tokens[i].str();
    }
    return out;
}

namespace {

// Splits one right-hand-side alternative into grammar symbols. Quoted pieces
// are terminals; `epsilon` (or nothing) is the empty production.
std::vector<GSym> parse_alternative(std::string_view text, int line_no) {
    std::vector<GSym> rhs;
    std::size_t i = 0;
    while (i < text.size()) {
        if (std::isspace(static_cast<unsigned char>(text[i]))) {
            ++i;
            continue;
        }
        if (text[i] == '"') {
            std::size_t end = text.find('"', i + 1);
            if (end == std::string_view::npos) {
                throw GrammarError("unterminated terminal at line " + std::to_string(line_no));
            }
            rhs.push_back(GSym::term(text.substr(i + 1, end - i - 1)));
            i = end + 1;
            continue;
        }
        std::size_t start = i;
        while (i < text.size() && !std::isspace(static_cast<unsigned char>(text[i])) && text[i] != '"') ++i;
        auto word = text.substr(start, i - start);
        if (word == "epsilon") continue;  // explicit empty marker
        rhs.push_back(GSym::nonterm(word));
    }
    return rhs;
}

}  // namespace

Grammar Grammar::parse(std::string_view text) {
    Grammar g;
    int line_no = 0;
    bool have_start = false;
    for (const auto& raw_line : util::split(text, '\n')) {
        ++line_no;
        auto line = util::trim(raw_line);
        if (line.empty() || util::starts_with(line, "#")) continue;
        auto arrow = line.find("->");
        if (arrow == std::string_view::npos) {
            throw GrammarError("missing '->' at line " + std::to_string(line_no));
        }
        auto lhs_text = util::trim(line.substr(0, arrow));
        if (lhs_text.empty() || lhs_text.find(' ') != std::string_view::npos) {
            throw GrammarError("bad left-hand side at line " + std::to_string(line_no));
        }
        Symbol lhs(lhs_text);
        if (!have_start) {
            g.set_start(lhs);
            have_start = true;
        }
        auto rhs_text = line.substr(arrow + 2);
        // Split on '|' (terminals may not contain '|').
        std::size_t start = 0;
        while (start <= rhs_text.size()) {
            std::size_t bar = rhs_text.find('|', start);
            if (bar == std::string_view::npos) bar = rhs_text.size();
            g.add_production({lhs, parse_alternative(rhs_text.substr(start, bar - start), line_no)});
            start = bar + 1;
        }
    }
    if (!have_start) throw GrammarError("empty grammar");
    // Every bare identifier must be defined as a nonterminal somewhere.
    for (const auto& p : g.productions_) {
        for (const auto& s : p.rhs) {
            if (!s.terminal && !g.is_nonterminal(s.name)) {
                throw GrammarError("undefined nonterminal '" + std::string(s.name.str()) +
                                   "' (terminals must be quoted)");
            }
        }
    }
    return g;
}

int Grammar::add_production(Production p) {
    int index = static_cast<int>(productions_.size());
    Symbol lhs = p.lhs;
    productions_.push_back(std::move(p));
    auto it = std::find_if(by_lhs_.begin(), by_lhs_.end(),
                           [&](const auto& e) { return e.first == lhs; });
    if (it == by_lhs_.end()) {
        by_lhs_.emplace_back(lhs, std::vector<int>{index});
    } else {
        it->second.push_back(index);
    }
    // A production can only add nullables. When its lhs becomes one, so can
    // the lhs of any earlier production that waited on it: close over all.
    auto derives_empty = [&](const Production& q) {
        return !is_nullable(q.lhs) && std::all_of(q.rhs.begin(), q.rhs.end(), [&](const GSym& s) {
                   return !s.terminal && is_nullable(s.name);
               });
    };
    for (bool changed = derives_empty(productions_.back()); changed;) {
        changed = false;
        for (const auto& q : productions_) {
            if (!derives_empty(q)) continue;
            nullable_.insert(std::lower_bound(nullable_.begin(), nullable_.end(), q.lhs), q.lhs);
            changed = true;
        }
    }
    return index;
}

bool Grammar::is_nullable(Symbol nt) const {
    return std::binary_search(nullable_.begin(), nullable_.end(), nt);
}

const std::vector<int>& Grammar::productions_for(Symbol nt) const {
    static const std::vector<int> kEmpty;
    auto it = std::find_if(by_lhs_.begin(), by_lhs_.end(),
                           [&](const auto& e) { return e.first == nt; });
    return it == by_lhs_.end() ? kEmpty : it->second;
}

bool Grammar::is_nonterminal(Symbol s) const { return !productions_for(s).empty(); }

std::string Grammar::to_string() const {
    std::string out;
    for (const auto& p : productions_) {
        out += p.to_string();
        out += '\n';
    }
    return out;
}

}  // namespace agenp::cfg
