#include "analysis/lint.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "asp/stratify.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"

namespace agenp::analysis {
namespace {

using asp::Atom;
using asp::Program;
using asp::Rule;
using util::Symbol;

// ---------------------------------------------------------------------------
// Definition/use table, namespace-aware.
//
// For a standalone program every atom lives in one anonymous namespace (the
// empty symbol). For an ASG, an unannotated atom lives in its production's
// left-hand-side namespace and `p@k` lives in the namespace of the k-th
// right-hand-side child; definitions and uses are unioned per nonterminal,
// which over-approximates the per-parse-tree scoping of asg/instantiate.

struct Occurrence {
    int production = -1;
    int rule = -1;
    std::string context;
};

struct PredInfo {
    std::set<int> arities;
    bool defined = false;
    bool used = false;
    bool used_positive = false;
    Occurrence first_def;
    Occurrence first_use;
    Occurrence first_arity_clash;  // where a second arity first appeared
};

class DefUseTable {
public:
    void record(Symbol ns, const Atom& atom, bool is_head, bool positive,
                const Occurrence& where) {
        PredInfo& info = table_[{ns, atom.predicate}];
        auto arity = static_cast<int>(atom.args.size());
        if (!info.arities.empty() && !info.arities.contains(arity) &&
            info.first_arity_clash.production == -1 && info.first_arity_clash.rule == -1) {
            info.first_arity_clash = where;
        }
        info.arities.insert(arity);
        if (is_head) {
            if (!info.defined) info.first_def = where;
            info.defined = true;
        } else {
            if (!info.used) info.first_use = where;
            info.used = true;
            info.used_positive = info.used_positive || positive;
        }
    }

    // Emits ASP002 (undefined), ASP003 (unused) and ASP004 (arity mismatch),
    // sorted by namespace and predicate name so output does not depend on
    // symbol-intern order.
    void emit(const LintOptions& options, DiagnosticSink& sink) const {
        std::set<Symbol> external(options.external_predicates.begin(),
                                  options.external_predicates.end());
        std::vector<const std::pair<const std::pair<Symbol, Symbol>, PredInfo>*> entries;
        entries.reserve(table_.size());
        for (const auto& entry : table_) entries.push_back(&entry);
        std::sort(entries.begin(), entries.end(), [](const auto* a, const auto* b) {
            auto ka = std::make_pair(a->first.first.str(), a->first.second.str());
            auto kb = std::make_pair(b->first.first.str(), b->first.second.str());
            return ka < kb;
        });

        for (const auto* entry : entries) {
            const auto& [ns, pred] = entry->first;
            const PredInfo& info = entry->second;
            std::string where = ns.str().empty() ? "" : " in namespace '" + std::string(ns.str()) + "'";
            std::string name(pred.str());

            if (info.arities.size() > 1) {
                std::string arities;
                for (int a : info.arities) {
                    if (!arities.empty()) arities += ", ";
                    arities += std::to_string(a);
                }
                Diagnostic d;
                d.code = codes::kArityMismatch;
                d.severity = Severity::Error;
                d.message = "predicate " + name + " is used with " +
                            std::to_string(info.arities.size()) + " different arities (" + arities +
                            ")" + where;
                d.hint = "rename one of the predicates or fix the argument list";
                d.location.production = info.first_arity_clash.production;
                d.location.rule = info.first_arity_clash.rule;
                d.location.context = info.first_arity_clash.context;
                sink.report(std::move(d));
            }

            if (info.used && !info.defined && !external.contains(pred)) {
                Diagnostic d;
                d.code = codes::kUndefinedPredicate;
                d.severity = Severity::Warning;
                d.message = "predicate " + name + " is never defined" + where +
                            (info.used_positive ? "; rules depending on it can never fire"
                                                : "; its negation is always true");
                d.hint = "define " + name + " or declare it as a context-supplied predicate";
                d.location.production = info.first_use.production;
                d.location.rule = info.first_use.rule;
                d.location.context = info.first_use.context;
                sink.report(std::move(d));
            }

            if (options.check_unused && info.defined && !info.used && !external.contains(pred)) {
                Diagnostic d;
                d.code = codes::kUnusedPredicate;
                d.severity = Severity::Info;
                d.message = "predicate " + name + " is derived but never consumed" + where;
                d.location.production = info.first_def.production;
                d.location.rule = info.first_def.rule;
                d.location.context = info.first_def.context;
                sink.report(std::move(d));
            }
        }
    }

private:
    std::map<std::pair<Symbol, Symbol>, PredInfo> table_;
};

// ---------------------------------------------------------------------------
// Per-rule passes shared between standalone programs and annotations.

void check_rule_safety(const Rule& rule, const Occurrence& where, DiagnosticSink& sink) {
    for (Symbol v : rule.unsafe_variables()) {
        Diagnostic d;
        d.code = codes::kUnsafeVariable;
        d.severity = Severity::Error;
        d.message = "unsafe variable " + std::string(v.str()) +
                    " is not bound by any positive body literal";
        d.hint = "add a positive body literal (or a V = ground-expr binder) covering " +
                 std::string(v.str());
        d.location.production = where.production;
        d.location.rule = where.rule;
        d.location.context = where.context;
        sink.report(std::move(d));
    }
}

// ASP006 (constraint violated in every answer set) and ASP008 (rule that can
// never fire). `facts` holds the unit's ground unannotated facts.
void check_rule_triviality(const Rule& rule, const std::set<std::string>& facts,
                           const Occurrence& where, DiagnosticSink& sink) {
    // Complementary literals: `..., a, not a, ...` never holds.
    for (const auto& l : rule.body) {
        if (!l.positive) continue;
        for (const auto& m : rule.body) {
            if (!m.positive && m.atom == l.atom) {
                Diagnostic d;
                d.code = codes::kVacuousRule;
                d.severity = Severity::Info;
                d.message = "rule can never fire: body contains both " + l.atom.to_string() +
                            " and its negation";
                d.location.production = where.production;
                d.location.rule = where.rule;
                d.location.context = where.context;
                sink.report(std::move(d));
                return;
            }
        }
    }

    // Ground builtins decide at lint time.
    bool builtins_ground_true = true;
    for (const auto& c : rule.builtins) {
        if (!c.lhs.is_ground() || !c.rhs.is_ground()) {
            builtins_ground_true = false;
            continue;
        }
        auto value = c.evaluate();
        if (value && !*value) {
            Diagnostic d;
            d.code = codes::kVacuousRule;
            d.severity = Severity::Info;
            d.message = "rule can never fire: builtin " + c.to_string() + " is always false";
            d.location.production = where.production;
            d.location.rule = where.rule;
            d.location.context = where.context;
            sink.report(std::move(d));
            return;
        }
        if (!value) builtins_ground_true = false;
    }

    if (!rule.is_constraint() || !builtins_ground_true) return;
    // A constraint whose body provably holds in every answer set (all
    // positive literals are facts of the unit, no negation, builtins true)
    // wipes out every model.
    for (const auto& l : rule.body) {
        if (!l.positive || !l.atom.is_ground() || l.atom.annotation != asp::kUnannotated ||
            !facts.contains(l.atom.to_string())) {
            return;
        }
    }
    Diagnostic d;
    d.code = codes::kUnsatConstraint;
    d.severity = Severity::Error;
    d.message = rule.body.empty() && rule.builtins.empty()
                    ? "constraint with an empty body is always violated"
                    : "constraint is always violated: its body holds in every answer set";
    d.hint = "remove the constraint or weaken its body";
    d.location.production = where.production;
    d.location.rule = where.rule;
    d.location.context = where.context;
    sink.report(std::move(d));
}

// ASP007: |universe|^|vars| upper bound on a rule's ground instances.
void check_rule_grounding(const Rule& rule, std::size_t universe, const LintOptions& options,
                          const Occurrence& where, DiagnosticSink& sink) {
    std::vector<Symbol> vars;
    rule.collect_variables(vars);
    std::sort(vars.begin(), vars.end());
    vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
    if (vars.empty() || universe < 2) return;
    double estimate =
        std::pow(static_cast<double>(universe), static_cast<double>(vars.size()));
    if (estimate <= static_cast<double>(options.grounding_estimate_limit)) return;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3g", estimate);
    Diagnostic d;
    d.code = codes::kGroundingBlowup;
    d.severity = Severity::Warning;
    d.message = "rule may ground into ~" + std::string(buf) + " instances (" +
                std::to_string(vars.size()) + " variables over a universe of " +
                std::to_string(universe) + " ground terms; limit " +
                std::to_string(options.grounding_estimate_limit) + ")";
    d.hint = "narrow the rule body; the grounder aborts past GroundingLimits.max_atoms";
    d.location.production = where.production;
    d.location.rule = where.rule;
    d.location.context = where.context;
    sink.report(std::move(d));
}

// Ground terms appearing as atom arguments: the static stand-in for the
// Herbrand universe in the ASP007 estimate.
void collect_universe(const Program& program, std::set<std::string>& universe) {
    auto absorb = [&](const Atom& atom) {
        for (const auto& t : atom.args) {
            if (t.is_ground()) universe.insert(t.to_string());
        }
    };
    for (const auto& rule : program.rules()) {
        if (rule.head) absorb(*rule.head);
        for (const auto& l : rule.body) absorb(l.atom);
    }
}

std::set<std::string> collect_facts(const Program& program) {
    std::set<std::string> facts;
    for (const auto& rule : program.rules()) {
        if (rule.is_fact() && rule.head->is_ground() &&
            rule.head->annotation == asp::kUnannotated) {
            facts.insert(rule.head->to_string());
        }
    }
    return facts;
}

void check_stratification(const Program& program, const Occurrence& where, DiagnosticSink& sink) {
    auto info = asp::analyze_stratification(program);
    if (info.stratified) return;
    std::string preds;
    for (Symbol s : info.negative_cycle) {
        if (!preds.empty()) preds += ", ";
        preds += s.str();
    }
    Diagnostic d;
    d.code = codes::kNotStratified;
    d.severity = Severity::Warning;
    d.message = "program is not stratified: negation cycle through {" + preds + "}";
    d.hint = "break the cycle; non-stratified programs may have zero or many answer sets and "
             "disable the learner's deterministic fast path";
    d.location.production = where.production;
    d.location.context = where.context;
    sink.report(std::move(d));
}

void publish(const char* what, const DiagnosticSink& sink) {
    if (!obs::metrics_enabled()) return;
    auto& m = obs::metrics();
    m.counter(std::string("analysis.lint.") + what).add(1);
    static obs::Counter& findings = m.counter("analysis.lint.diagnostics");
    findings.add(sink.size());
}

}  // namespace

DiagnosticSink lint_program(const Program& program, const LintOptions& options) {
    obs::Phase phase(obs::PhaseId::LintProgram);

    DiagnosticSink sink;
    std::set<std::string> universe;
    collect_universe(program, universe);
    auto facts = collect_facts(program);

    DefUseTable table;
    Symbol anonymous;  // the empty namespace
    for (std::size_t i = 0; i < program.rules().size(); ++i) {
        const Rule& rule = program.rules()[i];
        Occurrence where{-1, static_cast<int>(i), rule.to_string()};
        check_rule_safety(rule, where, sink);
        check_rule_triviality(rule, facts, where, sink);
        if (options.check_grounding) check_rule_grounding(rule, universe.size(), options, where, sink);
        if (rule.head) table.record(anonymous, *rule.head, /*is_head=*/true, true, where);
        for (const auto& l : rule.body) {
            table.record(anonymous, l.atom, /*is_head=*/false, l.positive, where);
        }
    }
    table.emit(options, sink);
    check_stratification(program, Occurrence{}, sink);
    publish("programs", sink);
    return sink;
}

namespace {

// Namespace of `atom` inside production `p` of `grammar`: the production's
// own lhs when unannotated, the k-th child nonterminal for `@k`. Returns
// false (and reports ASG004) when the annotation addresses a terminal.
bool resolve_namespace(const asg::AnswerSetGrammar& grammar, int production, const Atom& atom,
                       const Occurrence& where, DiagnosticSink* sink, Symbol& out) {
    const cfg::Production& prod = grammar.grammar().production(production);
    if (atom.annotation == asp::kUnannotated) {
        out = prod.lhs;
        return true;
    }
    auto k = static_cast<std::size_t>(atom.annotation);
    if (k == 0 || k > prod.rhs.size()) {
        out = prod.lhs;  // parse/check_annotation rejects this; be defensive
        return true;
    }
    const cfg::GSym& child = prod.rhs[k - 1];
    if (child.terminal) {
        if (sink != nullptr) {
            Diagnostic d;
            d.code = codes::kAnnotationOnTerminal;
            d.severity = Severity::Warning;
            d.message = "annotation @" + std::to_string(atom.annotation) + " on " +
                        atom.to_string() + " addresses the terminal \"" +
                        std::string(child.name.str()) + "\"; the atom can never be derived there";
            d.hint = "point the annotation at a nonterminal child";
            d.location = Location{where.rule, where.production, where.context};
            sink->report(std::move(d));
        }
        out = Symbol(std::string("$terminal$") + std::string(child.name.str()));
        return false;
    }
    out = child.name;
    return true;
}

// Flattens every annotation into one program whose predicates are prefixed
// with their namespace, so asp/stratify sees cross-production negation
// cycles. This conflates tree levels of recursive nonterminals — a sound
// over-approximation for a lint warning.
Program flatten_for_stratification(const asg::AnswerSetGrammar& grammar) {
    Program flat;
    auto rename = [&](int production, const Atom& atom) {
        Symbol ns;
        Occurrence nowhere;
        resolve_namespace(grammar, production, atom, nowhere, nullptr, ns);
        Atom out;
        out.predicate = Symbol(std::string(ns.str()) + "::" + std::string(atom.predicate.str()));
        out.args = atom.args;
        return out;
    };
    for (std::size_t p = 0; p < grammar.production_count(); ++p) {
        for (const auto& rule : grammar.annotation(static_cast<int>(p)).rules()) {
            Rule renamed;
            if (rule.head) renamed.head = rename(static_cast<int>(p), *rule.head);
            for (const auto& l : rule.body) {
                renamed.body.emplace_back(rename(static_cast<int>(p), l.atom), l.positive);
            }
            renamed.builtins = rule.builtins;
            flat.add(std::move(renamed));
        }
    }
    return flat;
}

// ASG001/ASG002/ASG003: reachability from the start symbol and
// productivity (can a production ever complete a derivation?).
void check_grammar_shape(const asg::AnswerSetGrammar& grammar, DiagnosticSink& sink) {
    const cfg::Grammar& g = grammar.grammar();
    const auto& productions = g.productions();

    std::set<Symbol> reachable{g.start()};
    std::vector<Symbol> frontier{g.start()};
    while (!frontier.empty()) {
        Symbol nt = frontier.back();
        frontier.pop_back();
        for (int pi : g.productions_for(nt)) {
            for (const auto& sym : g.production(pi).rhs) {
                if (!sym.terminal && reachable.insert(sym.name).second) {
                    frontier.push_back(sym.name);
                }
            }
        }
    }

    std::set<Symbol> productive;
    bool changed = true;
    while (changed) {
        changed = false;
        for (const auto& p : productions) {
            if (productive.contains(p.lhs)) continue;
            bool all = std::all_of(p.rhs.begin(), p.rhs.end(), [&](const cfg::GSym& s) {
                return s.terminal || productive.contains(s.name);
            });
            if (all) {
                productive.insert(p.lhs);
                changed = true;
            }
        }
    }

    for (std::size_t i = 0; i < productions.size(); ++i) {
        const cfg::Production& p = productions[i];
        Occurrence where{static_cast<int>(i), -1, p.to_string()};
        if (!reachable.contains(p.lhs)) {
            Diagnostic d;
            d.code = codes::kUnreachableProduction;
            d.severity = Severity::Warning;
            d.message = "production for '" + std::string(p.lhs.str()) +
                        "' is unreachable from the start symbol '" +
                        std::string(g.start().str()) + "'";
            d.hint = "remove the production or reference its nonterminal";
            d.location = Location{where.rule, where.production, where.context};
            sink.report(std::move(d));
        }
        bool completable = std::all_of(p.rhs.begin(), p.rhs.end(), [&](const cfg::GSym& s) {
            return s.terminal || productive.contains(s.name);
        });
        if (!completable) {
            Diagnostic d;
            d.code = codes::kNonproductiveProduction;
            d.severity = Severity::Warning;
            d.message = "production for '" + std::string(p.lhs.str()) +
                        "' can never complete a derivation (a right-hand-side nonterminal "
                        "derives no terminal string)";
            d.hint = "add a base-case production for the offending nonterminal";
            d.location = Location{where.rule, where.production, where.context};
            sink.report(std::move(d));
        }
    }

    if (!productive.contains(g.start())) {
        Diagnostic d;
        d.code = codes::kEmptyLanguage;
        d.severity = Severity::Error;
        d.message = "the start symbol '" + std::string(g.start().str()) +
                    "' derives no terminal string: the policy language is empty";
        d.hint = "every nonterminal needs a production bottoming out in terminals";
        sink.report(std::move(d));
    }
}

}  // namespace

DiagnosticSink lint_asg(const asg::AnswerSetGrammar& grammar, const LintOptions& options) {
    obs::Phase phase(obs::PhaseId::LintAsg);

    DiagnosticSink sink;
    check_grammar_shape(grammar, sink);

    // Universe for the grounding estimate: ground terms across every
    // annotation (contexts add more at solve time; this is the static part).
    std::set<std::string> universe;
    for (std::size_t p = 0; p < grammar.production_count(); ++p) {
        collect_universe(grammar.annotation(static_cast<int>(p)), universe);
    }

    DefUseTable table;
    for (std::size_t p = 0; p < grammar.production_count(); ++p) {
        auto pi = static_cast<int>(p);
        const Program& annotation = grammar.annotation(pi);
        auto facts = collect_facts(annotation);
        std::string header = grammar.grammar().production(pi).to_string();
        for (std::size_t r = 0; r < annotation.rules().size(); ++r) {
            const Rule& rule = annotation.rules()[r];
            Occurrence where{pi, static_cast<int>(r), header + " { " + rule.to_string() + " }"};
            check_rule_safety(rule, where, sink);
            check_rule_triviality(rule, facts, where, sink);
            if (options.check_grounding) {
                check_rule_grounding(rule, universe.size(), options, where, sink);
            }
            auto record = [&](const Atom& atom, bool is_head, bool positive) {
                Symbol ns;
                if (resolve_namespace(grammar, pi, atom, where, &sink, ns)) {
                    table.record(ns, atom, is_head, positive, where);
                }
            };
            if (rule.head) record(*rule.head, /*is_head=*/true, true);
            for (const auto& l : rule.body) record(l.atom, /*is_head=*/false, l.positive);
        }
    }
    table.emit(options, sink);
    check_stratification(flatten_for_stratification(grammar),
                         Occurrence{-1, -1, "annotations (namespace-flattened)"}, sink);
    publish("asgs", sink);
    return sink;
}

}  // namespace agenp::analysis
