#include "asp/parser.hpp"

#include <algorithm>
#include <cctype>
#include <limits>

#include "util/strings.hpp"

namespace agenp::asp {
namespace {

enum class TokKind {
    Ident,     // lowercase identifier or quoted string
    Variable,  // uppercase/_ identifier
    Integer,
    Punct,  // one of :- . , ( ) @ = != < <= > >= + - * / and keyword handled via Ident
    End,
};

struct Token {
    TokKind kind = TokKind::End;
    std::string text;
    std::int64_t value = 0;
    int line = 0;
};

class Lexer {
public:
    explicit Lexer(std::string_view text) : text_(text) {}

    Token next() {
        skip_ws_and_comments();
        Token t;
        t.line = line_;
        if (pos_ >= text_.size()) return t;
        char c = text_[pos_];
        if (std::isdigit(static_cast<unsigned char>(c))) return lex_integer();
        if (c == '_' || std::isalpha(static_cast<unsigned char>(c))) return lex_word();
        if (c == '"') return lex_quoted();
        return lex_punct();
    }

private:
    void skip_ws_and_comments() {
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c == '\n') {
                ++line_;
                ++pos_;
            } else if (std::isspace(static_cast<unsigned char>(c))) {
                ++pos_;
            } else if (c == '%') {
                while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
            } else {
                break;
            }
        }
    }

    Token lex_integer() {
        Token t;
        t.kind = TokKind::Integer;
        t.line = line_;
        std::size_t start = pos_;
        while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
        t.text = std::string(text_.substr(start, pos_ - start));
        auto value = util::parse_number<std::int64_t>(t.text);
        if (!value) throw ParseError("integer " + t.text + " out of range at line " + std::to_string(line_));
        t.value = *value;
        return t;
    }

    Token lex_word() {
        Token t;
        t.line = line_;
        std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (text_[pos_] == '_' || std::isalnum(static_cast<unsigned char>(text_[pos_])))) {
            ++pos_;
        }
        t.text = std::string(text_.substr(start, pos_ - start));
        t.kind = util::is_variable_name(t.text) ? TokKind::Variable : TokKind::Ident;
        return t;
    }

    Token lex_quoted() {
        Token t;
        t.kind = TokKind::Ident;
        t.line = line_;
        ++pos_;  // opening quote
        std::size_t start = pos_;
        while (pos_ < text_.size() && text_[pos_] != '"') ++pos_;
        if (pos_ >= text_.size()) throw ParseError("unterminated string at line " + std::to_string(line_));
        t.text = std::string(text_.substr(start, pos_ - start));
        ++pos_;  // closing quote
        return t;
    }

    Token lex_punct() {
        Token t;
        t.kind = TokKind::Punct;
        t.line = line_;
        auto rest = text_.substr(pos_);
        for (std::string_view p : {":-", "!=", "<=", ">=", ".."}) {
            if (util::starts_with(rest, p)) {
                t.text = std::string(p);
                pos_ += p.size();
                return t;
            }
        }
        char c = text_[pos_];
        if (std::string_view(".,()@=<>+-*/").find(c) == std::string_view::npos) {
            throw ParseError(std::string("unexpected character '") + c + "' at line " + std::to_string(line_));
        }
        t.text = std::string(1, c);
        ++pos_;
        return t;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    int line_ = 1;
};

class Parser {
public:
    explicit Parser(std::string_view text) : lexer_(text) { advance(); }

    Program parse_program() {
        Program prog;
        while (cur_.kind != TokKind::End) {
            Rule rule = parse_rule();
            expect_punct(".");
            expand_ranges(prog, rule);
        }
        return prog;
    }

    Rule parse_single_rule() {
        Rule r = parse_rule();
        if (is_punct(".")) advance();
        if (cur_.kind != TokKind::End) fail("trailing input after rule");
        return r;
    }

    Atom parse_single_atom() {
        Atom a = parse_atom();
        if (cur_.kind != TokKind::End) fail("trailing input after atom");
        return a;
    }

    Term parse_single_term() {
        Term t = parse_expression();
        if (cur_.kind != TokKind::End) fail("trailing input after term");
        return t;
    }

private:
    [[noreturn]] void fail(const std::string& message) {
        throw ParseError(message + " at line " + std::to_string(cur_.line) +
                         (cur_.text.empty() ? "" : " near '" + cur_.text + "'"));
    }

    void advance() { cur_ = lexer_.next(); }

    bool is_punct(std::string_view p) const { return cur_.kind == TokKind::Punct && cur_.text == p; }

    void expect_punct(std::string_view p) {
        if (!is_punct(p)) fail("expected '" + std::string(p) + "'");
        advance();
    }

    Rule parse_rule() {
        Rule rule;
        if (!is_punct(":-")) {
            rule.head = parse_atom();
        }
        if (is_punct(":-")) {
            advance();
            parse_body(rule);
        }
        return rule;
    }

    // `p(1..3, a).` expands into p(1,a). p(2,a). p(3,a). Ranges are fact
    // sugar only; anywhere else they are rejected.
    static bool is_range(const Term& t) {
        return t.is_compound() && t.symbol().str() == ".." && t.args().size() == 2;
    }

    // One statement expands into at most this many facts, so that
    // `n(1..9223372036854775807).` is a parse error rather than a hang.
    static constexpr std::uint64_t kMaxIntervalFacts = std::uint64_t{1} << 20;

    // How many values `range` holds, saturating just past kMaxIntervalFacts;
    // unsigned, so even the widest interval's span does not overflow.
    static std::uint64_t interval_values(const Term& range, const Atom& atom) {
        const Term& lo = range.args()[0];
        const Term& hi = range.args()[1];
        if (!lo.is_integer() || !hi.is_integer() || lo.int_value() > hi.int_value()) {
            throw ParseError("bad interval bounds in " + atom.to_string());
        }
        auto span = static_cast<std::uint64_t>(hi.int_value()) -
                    static_cast<std::uint64_t>(lo.int_value());
        return std::min(span, kMaxIntervalFacts) + 1;
    }

    static bool contains_range(const Term& t) {
        if (is_range(t)) return true;
        if (!t.is_compound()) return false;
        for (const auto& a : t.args()) {
            if (contains_range(a)) return true;
        }
        return false;
    }

    void expand_ranges(Program& prog, const Rule& rule) {
        bool has_range = false;
        if (rule.head) {
            for (const auto& a : rule.head->args) has_range |= contains_range(a);
        }
        auto reject_in_body = [&] {
            for (const auto& l : rule.body) {
                for (const auto& a : l.atom.args) {
                    if (contains_range(a)) {
                        throw ParseError("'..' intervals are only allowed in facts");
                    }
                }
            }
            for (const auto& c : rule.builtins) {
                if (contains_range(c.lhs) || contains_range(c.rhs)) {
                    throw ParseError("'..' intervals are only allowed in facts");
                }
            }
        };
        reject_in_body();
        if (!has_range) {
            prog.add(rule);
            return;
        }
        if (!rule.is_fact()) throw ParseError("'..' intervals are only allowed in facts");
        std::uint64_t facts = 1;
        for (const auto& a : rule.head->args) {
            if (is_range(a) && (facts *= interval_values(a, *rule.head)) > kMaxIntervalFacts) {
                throw ParseError("intervals expand past " + std::to_string(kMaxIntervalFacts) +
                                 " facts in " + rule.head->to_string());
            }
        }
        expand_fact(prog, *rule.head, 0);
    }

    void expand_fact(Program& prog, const Atom& atom, std::size_t from) {
        for (std::size_t i = from; i < atom.args.size(); ++i) {
            if (!is_range(atom.args[i])) continue;
            // Counting values, not comparing with hi, never steps past INT64_MAX.
            std::uint64_t values = interval_values(atom.args[i], atom);
            auto lo = static_cast<std::uint64_t>(atom.args[i].args()[0].int_value());
            for (std::uint64_t k = 0; k < values; ++k) {
                Atom instance = atom;
                instance.args[i] = Term::integer(static_cast<std::int64_t>(lo + k));
                expand_fact(prog, instance, i + 1);
            }
            return;
        }
        for (const auto& a : atom.args) {
            if (contains_range(a)) {
                throw ParseError("'..' intervals must be top-level arguments: " + atom.to_string());
            }
        }
        prog.add_fact(atom);
    }

    void parse_body(Rule& rule) {
        while (true) {
            parse_body_element(rule);
            if (!is_punct(",")) break;
            advance();
        }
    }

    void parse_body_element(Rule& rule) {
        if (cur_.kind == TokKind::Ident && cur_.text == "not") {
            advance();
            rule.body.push_back(Literal::neg(parse_atom()));
            return;
        }
        // Could be an atom or the left operand of a comparison. Parse an
        // expression first and decide by the following token.
        Term lhs = parse_expression();
        auto op = parse_comparison_op();
        if (op) {
            Term rhs = parse_expression();
            rule.builtins.emplace_back(*op, std::move(lhs), std::move(rhs));
            return;
        }
        rule.body.push_back(Literal::pos(term_to_atom(lhs)));
    }

    std::optional<Comparison::Op> parse_comparison_op() {
        if (cur_.kind != TokKind::Punct) return std::nullopt;
        std::optional<Comparison::Op> op;
        if (cur_.text == "=") op = Comparison::Op::Eq;
        else if (cur_.text == "!=") op = Comparison::Op::Ne;
        else if (cur_.text == "<") op = Comparison::Op::Lt;
        else if (cur_.text == "<=") op = Comparison::Op::Le;
        else if (cur_.text == ">") op = Comparison::Op::Gt;
        else if (cur_.text == ">=") op = Comparison::Op::Ge;
        if (op) advance();
        return op;
    }

    Atom term_to_atom(const Term& t) {
        Atom atom;
        if (t.is_constant()) {
            atom.predicate = t.symbol();
        } else if (t.is_compound()) {
            atom.predicate = t.symbol();
            atom.args = t.args();
        } else {
            fail("expected an atom");
        }
        // Optional ASG annotation: atom@k.
        if (is_punct("@")) {
            advance();
            if (cur_.kind != TokKind::Integer) fail("expected integer annotation after '@'");
            if (cur_.value < 1 || cur_.value > std::numeric_limits<int>::max()) {
                fail("annotation must be in 1..2147483647");
            }
            atom.annotation = static_cast<int>(cur_.value);
            advance();
        }
        return atom;
    }

    Atom parse_atom() { return term_to_atom(parse_expression()); }

    // expression := mul_expr (('+'|'-') mul_expr)*
    Term parse_expression() {
        Term lhs = parse_mul_expr();
        while (is_punct("+") || is_punct("-")) {
            Symbol op(cur_.text);
            advance();
            Term rhs = parse_mul_expr();
            lhs = Term::compound(op, {std::move(lhs), std::move(rhs)});
        }
        return lhs;
    }

    // mul_expr := primary (('*'|'/') primary)*
    Term parse_mul_expr() {
        Term lhs = parse_primary();
        while (is_punct("*") || is_punct("/")) {
            Symbol op(cur_.text);
            advance();
            Term rhs = parse_primary();
            lhs = Term::compound(op, {std::move(lhs), std::move(rhs)});
        }
        return lhs;
    }

    Term parse_primary() {
        if (is_punct("-")) {  // unary minus
            advance();
            if (cur_.kind == TokKind::Integer) {
                Term t = Term::integer(-cur_.value);
                advance();
                return t;
            }
            Term inner = parse_primary();
            return Term::compound(Symbol("-"), {Term::integer(0), std::move(inner)});
        }
        if (is_punct("(")) {
            advance();
            Term t = parse_expression();
            expect_punct(")");
            return t;
        }
        if (cur_.kind == TokKind::Integer) {
            Term t = Term::integer(cur_.value);
            advance();
            // Interval sugar: `lo..hi` (expanded for facts in parse_program).
            if (is_punct("..")) {
                advance();
                if (cur_.kind != TokKind::Integer) fail("expected integer after '..'");
                Term hi = Term::integer(cur_.value);
                advance();
                return Term::compound(Symbol(".."), {std::move(t), std::move(hi)});
            }
            return t;
        }
        if (cur_.kind == TokKind::Variable) {
            Term t = Term::variable(Symbol(cur_.text));
            advance();
            return t;
        }
        if (cur_.kind == TokKind::Ident) {
            Symbol name(cur_.text);
            advance();
            if (is_punct("(")) {
                advance();
                TermList args;
                if (!is_punct(")")) {
                    while (true) {
                        args.push_back(parse_expression());
                        if (!is_punct(",")) break;
                        advance();
                    }
                }
                expect_punct(")");
                return Term::compound(name, std::move(args));
            }
            return Term::constant(name);
        }
        fail("expected a term");
    }

    Lexer lexer_;
    Token cur_;
};

}  // namespace

Program parse_program(std::string_view text) { return Parser(text).parse_program(); }

Rule parse_rule(std::string_view text) { return Parser(text).parse_single_rule(); }

Atom parse_atom(std::string_view text) { return Parser(text).parse_single_atom(); }

Term parse_term(std::string_view text) { return Parser(text).parse_single_term(); }

}  // namespace agenp::asp
