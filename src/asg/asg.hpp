// Answer Set Grammars (Definitions 1-2 of the paper).
//
// An ASG is a CFG whose production rules carry annotated ASP programs. The
// text format pairs each production (one per line, no `|` alternatives so
// the annotation binding stays unambiguous) with an optional `{ ... }` ASP
// block:
//
//   request -> "do" task "in" region {
//       :- requires(L)@2, limit(M)@4, L > M.
//   }
//   task -> "patrol" { requires(3). }
//
// Annotations `a@i` refer to the i-th right-hand-side child; unannotated
// atoms are local to the node. `#` starts a comment outside blocks, `%`
// inside (ASP syntax).
#pragma once

#include "asp/program.hpp"
#include "cfg/grammar.hpp"

namespace agenp::asg {

struct AsgError : std::runtime_error {
    using std::runtime_error::runtime_error;
};

class AnswerSetGrammar {
public:
    AnswerSetGrammar() = default;

    // Parses the text format above; throws AsgError / cfg::GrammarError /
    // asp::ParseError on malformed input or annotations indexing past the
    // production's arity.
    static AnswerSetGrammar parse(std::string_view text);

    // Adds a production with its annotation; returns the production index.
    int add_production(cfg::Production production, asp::Program annotation = {});

    void set_start(util::Symbol s) { grammar_.set_start(s); }

    [[nodiscard]] const cfg::Grammar& grammar() const { return grammar_; }
    [[nodiscard]] const asp::Program& annotation(int production_index) const {
        return annotations_[static_cast<std::size_t>(production_index)];
    }
    [[nodiscard]] std::size_t production_count() const { return annotations_.size(); }

    // Every predicate some annotation's body reads, positive or negated, at
    // any @i; sorted by Symbol and deduplicated. The read set that
    // asg::relevant_context starts from.
    [[nodiscard]] const std::vector<util::Symbol>& body_predicates() const {
        return body_predicates_;
    }

    // G:H (Definition 3): a copy with each hypothesis rule added to the
    // annotation of its target production.
    [[nodiscard]] AnswerSetGrammar with_rules(
        const std::vector<std::pair<asp::Rule, int>>& additions) const;

    [[nodiscard]] std::string to_string() const;

private:
    cfg::Grammar grammar_;
    std::vector<asp::Program> annotations_;  // parallel to grammar_.productions()
    std::vector<util::Symbol> body_predicates_;  // sorted, deduplicated

    void check_annotation(const asp::Program& annotation, const cfg::Production& production) const;
    void add_body_predicates(const asp::Rule& rule);
};

}  // namespace agenp::asg
