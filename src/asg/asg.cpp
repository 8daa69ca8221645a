#include "asg/asg.hpp"

#include <algorithm>

#include "asp/parser.hpp"
#include "util/strings.hpp"

namespace agenp::asg {

int AnswerSetGrammar::add_production(cfg::Production production, asp::Program annotation) {
    check_annotation(annotation, production);
    int index = grammar_.add_production(std::move(production));
    for (const auto& rule : annotation.rules()) add_body_predicates(rule);
    annotations_.push_back(std::move(annotation));
    return index;
}

void AnswerSetGrammar::add_body_predicates(const asp::Rule& rule) {
    for (const auto& literal : rule.body) {
        util::Symbol p = literal.atom.predicate;
        auto it = std::lower_bound(body_predicates_.begin(), body_predicates_.end(), p);
        if (it == body_predicates_.end() || *it != p) body_predicates_.insert(it, p);
    }
}

void AnswerSetGrammar::check_annotation(const asp::Program& annotation,
                                        const cfg::Production& production) const {
    auto arity = static_cast<int>(production.rhs.size());
    for (const auto& rule : annotation.rules()) {
        auto check_atom = [&](const asp::Atom& a) {
            if (a.annotation < 0 || a.annotation > arity) {
                throw AsgError("annotation @" + std::to_string(a.annotation) +
                               " names no child of the production in: " + rule.to_string());
            }
        };
        if (rule.head) check_atom(*rule.head);
        for (const auto& l : rule.body) check_atom(l.atom);
    }
}

AnswerSetGrammar AnswerSetGrammar::with_rules(
    const std::vector<std::pair<asp::Rule, int>>& additions) const {
    AnswerSetGrammar out = *this;
    for (const auto& [rule, production_index] : additions) {
        if (production_index < 0 || static_cast<std::size_t>(production_index) >= out.annotations_.size()) {
            throw AsgError("hypothesis targets unknown production " + std::to_string(production_index));
        }
        out.check_annotation(asp::Program({rule}),
                             out.grammar_.production(production_index));
        out.annotations_[static_cast<std::size_t>(production_index)].add(rule);
        out.add_body_predicates(rule);
    }
    return out;
}

std::string AnswerSetGrammar::to_string() const {
    std::string out;
    for (std::size_t i = 0; i < annotations_.size(); ++i) {
        out += grammar_.production(static_cast<int>(i)).to_string();
        if (!annotations_[i].empty()) {
            out += " {\n";
            for (const auto& r : annotations_[i].rules()) {
                out += "    " + r.to_string() + "\n";
            }
            out += "}";
        }
        out += '\n';
    }
    return out;
}

namespace {

// Parses "lhs -> sym sym ..." (a single alternative).
cfg::Production parse_production_header(std::string_view header) {
    auto arrow = header.find("->");
    if (arrow == std::string_view::npos) {
        throw AsgError("expected 'lhs -> rhs' production, got: " + std::string(header));
    }
    auto lhs = util::trim(header.substr(0, arrow));
    if (lhs.empty() || lhs.find(' ') != std::string_view::npos) {
        throw AsgError("bad production left-hand side: " + std::string(header));
    }
    if (header.find('|') != std::string_view::npos) {
        throw AsgError("ASG format forbids '|' alternatives (one production per line): " +
                       std::string(header));
    }
    cfg::Production prod;
    prod.lhs = util::Symbol(lhs);
    auto rhs = header.substr(arrow + 2);
    std::size_t i = 0;
    while (i < rhs.size()) {
        if (std::isspace(static_cast<unsigned char>(rhs[i]))) {
            ++i;
            continue;
        }
        if (rhs[i] == '"') {
            auto end = rhs.find('"', i + 1);
            if (end == std::string_view::npos) throw AsgError("unterminated terminal in: " + std::string(header));
            prod.rhs.push_back(cfg::GSym::term(rhs.substr(i + 1, end - i - 1)));
            i = end + 1;
        } else {
            std::size_t start = i;
            while (i < rhs.size() && !std::isspace(static_cast<unsigned char>(rhs[i])) && rhs[i] != '"') ++i;
            auto word = rhs.substr(start, i - start);
            if (word == "epsilon") continue;
            prod.rhs.push_back(cfg::GSym::nonterm(word));
        }
    }
    return prod;
}

}  // namespace

AnswerSetGrammar AnswerSetGrammar::parse(std::string_view text) {
    AnswerSetGrammar g;
    std::size_t pos = 0;
    bool have_start = false;
    while (pos < text.size()) {
        // Skip whitespace and '#' comments between statements.
        while (pos < text.size()) {
            if (std::isspace(static_cast<unsigned char>(text[pos]))) {
                ++pos;
            } else if (text[pos] == '#') {
                while (pos < text.size() && text[pos] != '\n') ++pos;
            } else {
                break;
            }
        }
        if (pos >= text.size()) break;

        // Header runs to end of line or an opening '{'.
        std::size_t header_end = pos;
        while (header_end < text.size() && text[header_end] != '\n' && text[header_end] != '{') {
            ++header_end;
        }
        auto header = util::trim(text.substr(pos, header_end - pos));
        cfg::Production prod = parse_production_header(header);
        pos = header_end;

        asp::Program annotation;
        // Allow the '{' on the header line or the next line(s).
        std::size_t look = pos;
        while (look < text.size() && std::isspace(static_cast<unsigned char>(text[look]))) ++look;
        if (look < text.size() && text[look] == '{') {
            auto close = text.find('}', look + 1);
            if (close == std::string_view::npos) {
                throw AsgError("unterminated annotation block for: " + std::string(header));
            }
            annotation = asp::parse_program(text.substr(look + 1, close - look - 1));
            pos = close + 1;
        }

        if (!have_start) {
            g.set_start(prod.lhs);
            have_start = true;
        }
        g.add_production(std::move(prod), std::move(annotation));
    }
    if (!have_start) throw AsgError("empty ASG");
    // Validate nonterminal references like cfg::Grammar::parse does.
    for (const auto& p : g.grammar_.productions()) {
        for (const auto& s : p.rhs) {
            if (!s.terminal && !g.grammar_.is_nonterminal(s.name)) {
                throw AsgError("undefined nonterminal '" + std::string(s.name.str()) +
                               "' (terminals must be quoted)");
            }
        }
    }
    return g;
}

}  // namespace agenp::asg
