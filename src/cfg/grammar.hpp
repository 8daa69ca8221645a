// Context-free grammars (Section II.A of the paper).
//
// Terminals and nonterminals are interned Symbols; a policy string is a
// sequence of terminal tokens. The text format, one production per line:
//
//   rule    -> "permit" subject | "deny" subject
//   subject -> "admin" | "user"
//
// Quoted tokens are terminals, bare identifiers are nonterminals; the first
// left-hand side is the start symbol; `|` separates alternatives. An empty
// alternative (nothing between `|`s, or `epsilon`) produces the empty string.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "util/symbol.hpp"

namespace agenp::cfg {

using util::Symbol;

struct GrammarError : std::runtime_error {
    using std::runtime_error::runtime_error;
};

// One occurrence of a grammar symbol on a right-hand side.
struct GSym {
    Symbol name;
    bool terminal = false;

    static GSym term(Symbol s) { return {s, true}; }
    static GSym term(std::string_view s) { return {Symbol(s), true}; }
    static GSym nonterm(Symbol s) { return {s, false}; }
    static GSym nonterm(std::string_view s) { return {Symbol(s), false}; }

    friend bool operator==(const GSym& a, const GSym& b) {
        return a.name == b.name && a.terminal == b.terminal;
    }
};

struct Production {
    Symbol lhs;
    std::vector<GSym> rhs;

    [[nodiscard]] std::string to_string() const;
};

// A token string (sentence) over the terminal alphabet.
using TokenString = std::vector<Symbol>;

// Splits a whitespace-separated sentence into tokens.
TokenString tokenize(std::string_view text);
std::string detokenize(const TokenString& tokens);

class Grammar {
public:
    Grammar() = default;

    // Builds from the text format above. Throws GrammarError on syntax
    // errors or bare identifiers that never appear as a left-hand side.
    static Grammar parse(std::string_view text);

    // Index of the added production.
    int add_production(Production p);

    void set_start(Symbol s) { start_ = s; }

    [[nodiscard]] Symbol start() const { return start_; }
    [[nodiscard]] const std::vector<Production>& productions() const { return productions_; }
    [[nodiscard]] const Production& production(int index) const {
        return productions_[static_cast<std::size_t>(index)];
    }

    // Productions whose lhs is `nt` (indices into productions()). A pure
    // read: a grammar may be shared by concurrent readers.
    [[nodiscard]] const std::vector<int>& productions_for(Symbol nt) const;

    [[nodiscard]] bool is_nonterminal(Symbol s) const;

    // Nonterminals that can derive the empty string, sorted by Symbol and
    // kept current by add_production.
    [[nodiscard]] const std::vector<Symbol>& nullable_nonterminals() const { return nullable_; }
    [[nodiscard]] bool is_nullable(Symbol nt) const;

    [[nodiscard]] std::string to_string() const;

private:
    Symbol start_;
    std::vector<Production> productions_;
    // lhs -> production indices, kept current by add_production.
    std::vector<std::pair<Symbol, std::vector<int>>> by_lhs_;
    std::vector<Symbol> nullable_;  // sorted
};

}  // namespace agenp::cfg
