#include "cli/commands.hpp"

#include <signal.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>

#include "agenp/ams.hpp"
#include "analysis/lint.hpp"
#include "asg/generate.hpp"
#include "asp/grounder.hpp"
#include "asp/parser.hpp"
#include "asp/solver.hpp"
#include "obs/metrics.hpp"
#include "obs/reqtrace.hpp"
#include "util/strings.hpp"
#include "xacml/evaluator.hpp"
#include "xacml/text_format.hpp"

namespace agenp::cli {

std::string read_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw CliError("cannot read file: " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

namespace {

asp::Comparison::Op parse_op(const std::string& word) {
    if (word == "lt") return asp::Comparison::Op::Lt;
    if (word == "le") return asp::Comparison::Op::Le;
    if (word == "gt") return asp::Comparison::Op::Gt;
    if (word == "ge") return asp::Comparison::Op::Ge;
    if (word == "eq") return asp::Comparison::Op::Eq;
    if (word == "ne") return asp::Comparison::Op::Ne;
    throw CliError("unknown comparison op '" + word + "' (use lt le gt ge eq ne)");
}

// A learn-task number: all of `digits` must be a decimal int in lo..hi, or
// the error names the directive and the word the digits came from.
int parse_int(std::string_view digits, const std::string& directive, const std::string& word,
              int lo, int hi) {
    auto value = util::parse_number<int>(digits);
    if (!value) throw CliError(directive + " expects an integer, got '" + word + "'");
    if (*value < lo || *value > hi) {
        throw CliError(directive + " expects " + std::to_string(lo) + ".." + std::to_string(hi) +
                       ", got '" + word + "'");
    }
    return *value;
}

// The one integer argument of a `#bias` directive such as `max_body 2`.
int directive_int(const std::vector<std::string>& words, int lo, int hi) {
    if (words.size() != 2) throw CliError(words[0] + " needs exactly one integer");
    return parse_int(words[1], words[0], words[1], lo, hi);
}

// The body-size and comparison bounds stop at the learner's cost bound:
// Rule::size counts body literals, comparisons and the head, and learn
// never picks a rule that costs more, so a larger bound only grows the
// enumeration.
const int kMaxRuleSize = ilp::LearnOptions{}.max_cost;

// `body pred var(t) const(p) term @2 neg` -> ModeAtom. `@k` must name a
// child of some target production: 1 <= k <= max_arity.
ilp::ModeAtom parse_mode_atom(const std::vector<std::string>& words, std::size_t from,
                              int max_arity) {
    if (from >= words.size()) throw CliError("mode atom needs a predicate");
    ilp::ModeAtom atom;
    atom.predicate = asp::Symbol(words[from]);
    for (std::size_t i = from + 1; i < words.size(); ++i) {
        const std::string& w = words[i];
        if (w == "neg") {
            atom.allow_negated = true;
        } else if (!w.empty() && w[0] == '@') {
            atom.annotation =
                parse_int(std::string_view(w).substr(1), words[0] + " annotation", w, 1, max_arity);
        } else if (util::starts_with(w, "var(") && w.back() == ')') {
            atom.args.push_back(ilp::ArgSpec::var(w.substr(4, w.size() - 5)));
        } else if (util::starts_with(w, "const(") && w.back() == ')') {
            atom.args.push_back(ilp::ArgSpec::constant(w.substr(6, w.size() - 7)));
        } else {
            atom.args.push_back(ilp::ArgSpec::fixed_term(asp::parse_term(w)));
        }
    }
    return atom;
}

ilp::HypothesisSpace parse_bias(const std::vector<std::string>& lines,
                                const std::vector<int>& targets, int max_arity) {
    ilp::ModeBias bias;
    for (const auto& line : lines) {
        auto words = util::split_ws(line);
        if (words.empty()) continue;
        const std::string& kind = words[0];
        if (kind == "body") {
            bias.body.push_back(parse_mode_atom(words, 1, max_arity));
        } else if (kind == "head") {
            bias.head.push_back(parse_mode_atom(words, 1, max_arity));
        } else if (kind == "no_constraints") {
            bias.allow_constraints = false;
        } else if (kind == "compare") {
            if (words.size() < 3) throw CliError("compare needs: compare <type> <op>... [varvar] [varconst]");
            ilp::ComparisonMode cm;
            cm.type = asp::Symbol(words[1]);
            cm.var_vs_const = false;
            cm.var_vs_var = false;
            for (std::size_t i = 2; i < words.size(); ++i) {
                if (words[i] == "varvar") {
                    cm.var_vs_var = true;
                } else if (words[i] == "varconst") {
                    cm.var_vs_const = true;
                } else {
                    cm.ops.push_back(parse_op(words[i]));
                }
            }
            if (!cm.var_vs_var && !cm.var_vs_const) cm.var_vs_const = true;
            bias.comparisons.push_back(std::move(cm));
        } else if (kind == "const") {
            if (words.size() < 3) throw CliError("const needs: const <pool> <term>...");
            for (std::size_t i = 2; i < words.size(); ++i) {
                bias.constants[asp::Symbol(words[1])].push_back(asp::parse_term(words[i]));
            }
        } else if (kind == "max_body") {
            bias.max_body_atoms = directive_int(words, 0, kMaxRuleSize);
        } else if (kind == "min_body") {
            bias.min_body_atoms = directive_int(words, 0, kMaxRuleSize);
        } else if (kind == "max_vars") {
            bias.max_vars = directive_int(words, 0, std::numeric_limits<int>::max());
        } else if (kind == "max_comparisons") {
            bias.max_comparisons = directive_int(words, 0, kMaxRuleSize);
        } else {
            throw CliError("unknown bias directive '" + kind + "'");
        }
    }
    return ilp::generate_space(bias, targets);
}

ilp::Example parse_example(const std::string& line) {
    auto bar = line.find('|');
    std::string tokens = bar == std::string::npos ? line : line.substr(0, bar);
    std::string context = bar == std::string::npos ? "" : line.substr(bar + 1);
    return {cfg::tokenize(tokens), asp::parse_program(context)};
}

}  // namespace

ilp::LearningTask parse_task_file(std::string_view text) {
    std::map<std::string, std::vector<std::string>> sections;
    std::string current;
    for (const auto& raw : util::split(text, '\n')) {
        auto line = util::trim(raw);
        if (line.empty()) continue;
        if (line[0] == '#') {
            current = std::string(util::trim(line.substr(1)));
            continue;
        }
        if (current.empty()) throw CliError("content before the first #section header");
        sections[current].emplace_back(line);
    }
    if (!sections.contains("grammar")) throw CliError("missing #grammar section");
    if (!sections.contains("bias")) throw CliError("missing #bias section");

    ilp::LearningTask task;
    task.initial = asg::AnswerSetGrammar::parse(util::join(sections["grammar"], "\n"));
    // Targets: optional `#targets` section of production indices; default
    // is the start production 0.
    const int productions = static_cast<int>(task.initial.production_count());
    std::vector<int> targets = {0};
    if (sections.contains("targets")) {
        targets.clear();
        for (const auto& line : sections["targets"]) {
            for (const auto& w : util::split_ws(line)) {
                targets.push_back(parse_int(w, "#targets", w, 0, productions - 1));
            }
        }
    }
    int max_arity = 0;
    for (int target : targets) {
        max_arity = std::max(max_arity,
                             static_cast<int>(task.initial.grammar().production(target).rhs.size()));
    }
    task.space = parse_bias(sections["bias"], targets, max_arity);
    for (const auto& line : sections["positive"]) task.positive.push_back(parse_example(line));
    for (const auto& line : sections["negative"]) task.negative.push_back(parse_example(line));
    return task;
}

int cmd_solve(const std::string& program_path, std::size_t max_models, std::ostream& out) {
    auto program = asp::parse_program(read_file(program_path));
    auto gp = asp::ground(program);
    auto result = asp::solve(gp, {.max_models = max_models});
    if (result.models.empty()) {
        out << "UNSATISFIABLE\n";
        return 1;
    }
    for (std::size_t i = 0; i < result.models.size(); ++i) {
        out << "answer set " << (i + 1) << ": ";
        bool first = true;
        for (const auto& atom : asp::model_to_strings(gp, result.models[i])) {
            if (!first) out << " ";
            out << atom;
            first = false;
        }
        out << "\n";
    }
    return 0;
}

int cmd_membership(const std::string& grammar_path, const std::string& sentence,
                   const std::string& context_path, std::ostream& out) {
    auto grammar = asg::AnswerSetGrammar::parse(read_file(grammar_path));
    asp::Program context;
    if (!context_path.empty()) context = asp::parse_program(read_file(context_path));
    bool accepted = asg::in_language(grammar, cfg::tokenize(sentence), context);
    out << (accepted ? "ACCEPTED" : "REJECTED") << "\n";
    return accepted ? 0 : 1;
}

int cmd_generate(const std::string& grammar_path, const std::string& context_path,
                 std::size_t max_strings, std::ostream& out) {
    auto grammar = asg::AnswerSetGrammar::parse(read_file(grammar_path));
    asp::Program context;
    if (!context_path.empty()) context = asp::parse_program(read_file(context_path));
    asg::LanguageOptions options;
    options.enumeration.max_strings = max_strings;
    auto result = asg::language(grammar, context, options);
    for (const auto& s : result.strings) out << cfg::detokenize(s) << "\n";
    if (result.truncated) out << "(truncated)\n";
    return 0;
}

int cmd_learn(const std::string& task_path, const std::string& out_path, std::ostream& out) {
    auto task = parse_task_file(read_file(task_path));
    auto result = ilp::learn(task);
    if (!result.found) {
        out << "NO HYPOTHESIS: " << result.failure_reason << "\n";
        return 1;
    }
    out << "hypothesis (cost " << result.cost << "):\n" << result.hypothesis_to_string();
    if (!out_path.empty()) {
        auto learned = task.initial.with_rules(result.hypothesis);
        std::ofstream file(out_path);
        if (!file) throw CliError("cannot write: " + out_path);
        file << learned.to_string();
        out << "learned grammar written to " << out_path << "\n";
    }
    return 0;
}

int cmd_lint(const std::string& path, const std::string& context_path, bool json, bool strict,
             std::ostream& out) {
    analysis::LintOptions options;
    if (!context_path.empty()) {
        auto context = asp::parse_program(read_file(context_path));
        for (const auto& rule : context.rules()) {
            if (rule.head) options.external_predicates.push_back(rule.head->predicate);
        }
    }
    std::string text = read_file(path);
    analysis::DiagnosticSink sink = path.ends_with(".lp")
                                        ? analysis::lint_program(asp::parse_program(text), options)
                                        : analysis::lint_asg(asg::AnswerSetGrammar::parse(text), options);
    if (json) {
        out << sink.render_json() << "\n";
    } else {
        out << sink.render_text();
    }
    return sink.fails(strict) ? 1 : 0;
}

int cmd_quickstart(std::ostream& out) {
    // Step 0: the ASP substrate on a program with real search (three even
    // loops -> 8 answer sets), so solver decision/propagation counts are
    // nonzero in --stats.
    auto demo = asp::parse_program(R"(
        p0 :- not q0.  q0 :- not p0.
        p1 :- not q1.  q1 :- not p1.
        p2 :- not q2.  q2 :- not p2.
    )");
    auto solved = asp::solve(asp::ground(demo), {.max_models = 0});
    out << "ASP warm-up: " << solved.models.size() << " answer sets ("
        << solved.stats.decisions << " decisions, " << solved.stats.propagations
        << " propagations, " << solved.stats.backtracks << " backtracks)\n";

    // The quickstart domain (examples/quickstart.cpp), driven through the
    // full AGENP loop so every phase shows up in --stats/--trace-out.
    auto initial = asg::AnswerSetGrammar::parse(R"(
        request -> "do" task
        task -> "patrol"  { requires(2). }
        task -> "strike"  { requires(4). }
        task -> "observe" { requires(1). }
    )");
    ilp::ModeBias bias;
    bias.body.push_back(ilp::ModeAtom("requires", {ilp::ArgSpec::var("lvl")}, 2));
    bias.body.push_back(ilp::ModeAtom("maxloa", {ilp::ArgSpec::var("lvl")}));
    bias.comparisons.push_back(ilp::ComparisonMode(
        "lvl", {asp::Comparison::Op::Gt}, /*var_vs_const=*/false, /*var_vs_var=*/true));
    bias.max_body_atoms = 2;
    bias.max_vars = 2;

    framework::AutonomousManagedSystem ams("quickstart", initial, ilp::generate_space(bias, {0}));
    auto ctx = [](int maxloa) {
        return asp::parse_program("maxloa(" + std::to_string(maxloa) + ").");
    };
    ams.pip().add_source("env", [&ctx] { return ctx(3); });

    std::vector<ilp::Example> positive;
    positive.emplace_back(cfg::tokenize("do patrol"), ctx(3));
    positive.emplace_back(cfg::tokenize("do strike"), ctx(5));
    positive.emplace_back(cfg::tokenize("do observe"), ctx(1));
    std::vector<ilp::Example> negative;
    negative.emplace_back(cfg::tokenize("do strike"), ctx(3));
    negative.emplace_back(cfg::tokenize("do patrol"), ctx(1));

    auto outcome = ams.learn_model(positive, negative);
    if (!outcome.adapted) {
        out << "learning failed: " << outcome.reason << "\n";
        return 1;
    }
    out << "PAdaP adopted GPM v" << outcome.new_version << " (cost "
        << outcome.learn_result.cost << "):\n"
        << outcome.learn_result.hypothesis_to_string();

    auto report = ams.refresh_policies();
    out << "PReP materialized " << report.generated << " polic"
        << (report.generated == 1 ? "y" : "ies") << " under maxloa=3:\n";
    for (const auto& p : ams.policies().all()) {
        out << "  " << cfg::detokenize(p.policy) << "\n";
    }

    for (const char* request : {"do patrol", "do strike", "do observe"}) {
        auto [permitted, index] = ams.handle_request(cfg::tokenize(request));
        (void)index;
        out << "PDP: " << request << " -> " << (permitted ? "Permit" : "Deny") << "\n";
    }
    out << ams.monitor().render_audit();
    return 0;
}

int cmd_serve(const std::string& grammar_path, const std::string& context_path,
              const srv::ServerOptions& options, std::istream& in, std::ostream& out) {
    std::string grammar_text = read_file(grammar_path);
    asp::Program context;
    if (!context_path.empty()) context = asp::parse_program(read_file(context_path));
    // Surface grammar syntax errors once, before any replica spins up.
    (void)asg::AnswerSetGrammar::parse(grammar_text);

    // Listen mode runs until SIGTERM/SIGINT. Both are blocked before the
    // server starts its threads, which inherit the mask, and taken with
    // sigwait: no handler runs, and a second signal during the drain stays
    // pending instead of cutting it short.
    sigset_t stop_signals;
    sigemptyset(&stop_signals);
    sigaddset(&stop_signals, SIGTERM);
    sigaddset(&stop_signals, SIGINT);
    if (options.port.has_value()) pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);

    srv::Server server(srv::policy_factory(std::move(grammar_text), std::move(context)), options,
                       out);
    auto start = std::chrono::steady_clock::now();
    if (options.port.has_value()) {
        int received = 0;
        sigwait(&stop_signals, &received);
    } else {
        server.serve_lines(in);
    }
    server.drain();

    auto seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    srv::RouterStats rs = server.router().snapshot_stats();
    std::size_t served =
        rs.total.completed + rs.total.rejected_overload + rs.total.expired + rs.total.errors;
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%.1f req/s, cache hit rate %.3f",
                  seconds > 0 ? static_cast<double>(served) / seconds : 0.0,
                  rs.total.cache.hit_rate());
    out << "served " << served << " requests (" << rs.total.permitted << " permit, "
        << rs.total.denied << " deny, " << rs.total.rejected_overload << " overloaded, "
        << rs.total.expired << " expired, " << rs.total.errors << " errors): " << buf << "\n";
    return 0;
}

int cmd_loadgen(const LoadgenCliOptions& cli, std::ostream& out) {
    const srv::LoadgenOptions& load = cli.load;
    if (!cli.connect_host.empty()) {
        auto report = srv::run_loadgen_tcp(cli.connect_host, cli.connect_port,
                                           srv::demo_workload(cli.distinct), load);
        out << "loadgen: " << load.clients << " clients x " << load.requests_per_client
            << " requests, " << cli.distinct << " distinct, tcp " << cli.connect_host << ":"
            << cli.connect_port << "\n";
        out << report.render_text();
        out << "LOADGEN_JSON " << report.to_json() << "\n";
        return report.dropped == 0 ? 0 : 1;
    }

    auto ams = srv::make_demo_ams(cli.distinct);
    srv::DecisionService service(ams, cli.service);
    auto report = srv::run_loadgen(service, srv::demo_workload(cli.distinct), load);
    out << "loadgen: " << load.clients << " clients x " << load.requests_per_client
        << " requests, " << cli.distinct << " distinct, " << cli.service.threads
        << " threads, cache " << (cli.service.use_cache ? "on" : "off") << ", memo "
        << (cli.service.use_memo ? "on" : "off") << "\n";
    out << report.render_text();
    out << "LOADGEN_JSON " << report.to_json() << "\n";
    return 0;
}

int cmd_evaluate(const std::string& schema_path, const std::string& policy_path,
                 const std::string& request_text, std::ostream& out) {
    auto schema = xacml::parse_schema(read_file(schema_path));
    auto policy = xacml::parse_policy(read_file(policy_path), schema);
    auto request = xacml::parse_request(request_text, schema);
    auto decision = xacml::evaluate(policy, request);
    out << xacml::decision_name(decision) << "\n";
    return decision == xacml::Decision::Permit ? 0 : 1;
}

namespace {

// Pulls `--flag value` out of an argument list.
std::string take_flag(std::vector<std::string>& args, const std::string& flag,
                      const std::string& fallback) {
    for (std::size_t i = 0; i + 1 < args.size(); ++i) {
        if (args[i] == flag) {
            std::string value = args[i + 1];
            args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                       args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
            return value;
        }
    }
    return fallback;
}

// Pulls a boolean `--flag` out of an argument list.
bool take_bool_flag(std::vector<std::string>& args, const std::string& flag) {
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == flag) {
            args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
            return true;
        }
    }
    return false;
}

// Pulls `--flag N` out of an argument list into `value`, which keeps its
// default when the flag is absent; returns whether it was present. N must
// be a whole non-negative integer that still fits `value` once scaled by
// `unit` (1 << 20: MiB to bytes).
template <class T>
bool take_number(std::vector<std::string>& args, const std::string& flag, T& value,
                 std::uint64_t unit = 1) {
    std::string text = take_flag(args, flag, "");
    if (text.empty()) return false;
    const std::uint64_t max = static_cast<std::uint64_t>(std::numeric_limits<T>::max()) / unit;
    std::optional<std::uint64_t> number = util::parse_number<std::uint64_t>(text);
    if (!number || *number > max) {
        throw CliError(flag + " expects an integer in 0.." + std::to_string(max) + ", got " + text);
    }
    value = static_cast<T>(*number * unit);
    return true;
}

std::uint16_t parse_port(const std::string& text, const std::string& flag) {
    std::optional<std::uint16_t> port = util::parse_number<std::uint16_t>(text);
    if (!port) throw CliError(flag + " expects a port in 0..65535, got " + text);
    return *port;
}

// Pulls `--flag PORT` out of an argument list; nullopt when absent.
std::optional<std::uint16_t> take_port(std::vector<std::string>& args, const std::string& flag) {
    std::string text = take_flag(args, flag, "");
    if (text.empty()) return std::nullopt;
    return parse_port(text, flag);
}

// Splits `--flag=value` arguments into `--flag value` pairs so both
// spellings work with take_flag.
std::vector<std::string> normalize_flags(const std::vector<std::string>& argv) {
    std::vector<std::string> out;
    out.reserve(argv.size());
    for (const auto& a : argv) {
        auto eq = a.find('=');
        if (util::starts_with(a, "--") && eq != std::string::npos) {
            out.push_back(a.substr(0, eq));
            out.push_back(a.substr(eq + 1));
        } else {
            out.push_back(a);
        }
    }
    return out;
}

// Applies the telemetry flags around one command dispatch; writes the
// trace file and stats dump after the command finishes. --trace-out
// installs one TraceContext on this thread, so it records the phases the
// command runs here (serve's worker threads keep their own request trees,
// see --trace-sample / !trace).
class TelemetryScope {
public:
    TelemetryScope(bool stats, std::string trace_path, std::ostream& out)
        : stats_(stats),
          trace_path_(std::move(trace_path)),
          out_(out),
          trace_scope_(trace_path_.empty() ? nullptr : &trace_) {}

    ~TelemetryScope() {
        if (!trace_path_.empty()) {
            std::ofstream file(trace_path_);
            if (file) {
                file << trace_.chrome_trace_json();
                out_ << "trace written to " << trace_path_ << " (open in chrome://tracing)\n";
                out_ << trace_.flat_profile();
            } else {
                out_ << "cannot write trace file: " << trace_path_ << "\n";
            }
        }
        if (stats_) {
            out_ << "--- metrics ---\n" << obs::metrics().render_text();
        }
    }

private:
    bool stats_;
    std::string trace_path_;
    std::ostream& out_;
    obs::TraceContext trace_{0};
    obs::TraceContextScope trace_scope_;
};

}  // namespace

void take_service_flags(std::vector<std::string>& args, srv::ServiceOptions& options) {
    take_number(args, "--threads", options.threads);
    take_number(args, "--cache-mb", options.cache.capacity_bytes, 1 << 20);
    options.use_cache = !take_bool_flag(args, "--no-cache");
    take_number(args, "--cache-shards", options.cache.shards);
    if (take_number(args, "--memo-mb", options.memo.capacity_bytes, 1 << 20)) options.use_memo = true;
}

int run(const std::vector<std::string>& argv, std::ostream& out, std::ostream& err) {
    try {
        if (argv.empty()) {
            err << "usage: agenp <solve|membership|generate|learn|lint|evaluate|quickstart|serve|"
                   "loadgen> [--stats] [--trace-out=FILE] ...\n";
            return 2;
        }
        std::vector<std::string> normalized = normalize_flags(argv);
        std::vector<std::string> args(normalized.begin() + 1, normalized.end());
        const std::string command = normalized[0];
        bool stats = take_bool_flag(args, "--stats");
        std::string trace_out = take_flag(args, "--trace-out", "");
        TelemetryScope telemetry(stats, trace_out, out);
        if (command == "solve") {
            std::size_t models = 1;
            take_number(args, "--models", models);
            if (args.size() != 1) throw CliError("usage: agenp solve <program.lp> [--models N]");
            return cmd_solve(args[0], models, out);
        }
        if (command == "membership") {
            auto sentence = take_flag(args, "--string", "");
            auto context = take_flag(args, "--context", "");
            if (args.size() != 1 || sentence.empty()) {
                throw CliError("usage: agenp membership <grammar.asg> --string \"...\" [--context ctx.lp]");
            }
            return cmd_membership(args[0], sentence, context, out);
        }
        if (command == "generate") {
            auto context = take_flag(args, "--context", "");
            std::size_t max_strings = 1000;
            take_number(args, "--max", max_strings);
            if (args.size() != 1) throw CliError("usage: agenp generate <grammar.asg> [--context ctx.lp] [--max N]");
            return cmd_generate(args[0], context, max_strings, out);
        }
        if (command == "learn") {
            auto out_path = take_flag(args, "--out", "");
            if (args.size() != 1) throw CliError("usage: agenp learn <task.agenp> [--out learned.asg]");
            return cmd_learn(args[0], out_path, out);
        }
        if (command == "lint") {
            auto context = take_flag(args, "--context", "");
            bool json = take_bool_flag(args, "--json");
            bool strict = take_bool_flag(args, "--strict");
            if (args.size() != 1) {
                throw CliError(
                    "usage: agenp lint <file.asg|file.lp> [--context ctx.lp] [--json] [--strict]");
            }
            return cmd_lint(args[0], context, json, strict, out);
        }
        if (command == "quickstart") {
            if (!args.empty()) throw CliError("usage: agenp quickstart [--stats] [--trace-out=FILE]");
            return cmd_quickstart(out);
        }
        if (command == "serve") {
            srv::ServerOptions serve;
            std::string context = take_flag(args, "--context", "");
            srv::ServiceOptions& service = serve.router.service;
            take_service_flags(args, service);
            take_number(args, "--trace-slow-ms", service.trace.slow_threshold_us, 1000);
            take_number(args, "--trace-sample", service.trace.sample_every);
            take_number(args, "--stats-every", serve.stats_every_s);
            serve.port = take_port(args, "--listen");
            take_number(args, "--replicas", serve.router.replicas);
            serve.metrics_port = take_port(args, "--metrics-listen");
            serve.audit.path = take_flag(args, "--audit-log", "");
            take_number(args, "--audit-max-mb", serve.audit.max_bytes, 1 << 20);
            take_number(args, "--audit-sample", serve.audit.sample_every);
            serve.state_dir = take_flag(args, "--state-dir", "");
            take_number(args, "--snapshot-every", serve.snapshot_every_s);
            take_number(args, "--prof-hz", serve.prof_hz);
            if (serve.prof_hz > 1000) throw CliError("--prof-hz expects 0..1000");
            if (args.size() != 1) {
                throw CliError(
                    "usage: agenp serve <grammar.asg> [--context ctx.lp] [--threads N] "
                    "[--cache-mb M] [--no-cache] [--cache-shards N] "
                    "[--memo-mb M] [--trace-slow-ms MS] "
                    "[--trace-sample N] [--stats-every SEC] [--listen PORT] [--replicas N] "
                    "[--metrics-listen PORT] "
                    "[--audit-log FILE] [--audit-max-mb M] [--audit-sample N] "
                    "[--state-dir DIR] [--snapshot-every SEC] [--prof-hz HZ]");
            }
            return cmd_serve(args[0], context, serve, std::cin, out);
        }
        if (command == "loadgen") {
            LoadgenCliOptions load;
            take_service_flags(args, load.service);
            take_number(args, "--clients", load.load.clients);
            take_number(args, "--requests", load.load.requests_per_client);
            take_number(args, "--distinct", load.distinct);
            auto connect = take_flag(args, "--connect", "");
            if (!connect.empty()) {
                auto colon = connect.rfind(':');
                if (colon == std::string::npos || colon == 0 || colon + 1 == connect.size()) {
                    throw CliError("--connect expects HOST:PORT");
                }
                load.connect_host = connect.substr(0, colon);
                load.connect_port = parse_port(connect.substr(colon + 1), "--connect");
            }
            if (!args.empty()) {
                throw CliError(
                    "usage: agenp loadgen [--threads N] [--clients N] [--requests N] "
                    "[--distinct K] [--cache-mb M] [--no-cache] [--cache-shards N] "
                    "[--memo-mb M] [--connect HOST:PORT]");
            }
            return cmd_loadgen(load, out);
        }
        if (command == "evaluate") {
            auto request = take_flag(args, "--request", "");
            if (args.size() != 2 || request.empty()) {
                throw CliError(
                    "usage: agenp evaluate <schema.xs> <policy.xp> --request \"attr=value ...\"");
            }
            return cmd_evaluate(args[0], args[1], request, out);
        }
        err << "unknown command '" << command << "'\n";
        return 2;
    } catch (const std::exception& e) {
        err << "error: " << e.what() << "\n";
        return 2;
    }
}

}  // namespace agenp::cli
