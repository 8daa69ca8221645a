// The `agenp` command-line tool, as testable library functions.
//
//   agenp solve <program.lp> [--models N]
//   agenp membership <grammar.asg> --string "do patrol" [--context ctx.lp]
//   agenp generate <grammar.asg> [--context ctx.lp] [--max N]
//   agenp learn <task.agenp> [--out learned.asg]
//   agenp lint <file.asg|file.lp> [--context ctx.lp] [--json] [--strict]
//   agenp quickstart
//   agenp serve <grammar.asg> [--context ctx.lp] [--threads N] [--cache-mb M] [--no-cache]
//               [--cache-shards N] [--memo-mb M]
//               [--trace-slow-ms MS] [--trace-sample N] [--stats-every SEC]
//               [--listen PORT] [--replicas N]
//               [--metrics-listen PORT]
//               [--audit-log FILE] [--audit-max-mb M] [--audit-sample N]
//               [--state-dir DIR] [--snapshot-every SEC]
//   agenp loadgen [--threads N] [--clients N] [--requests N] [--distinct K]
//                 [--cache-mb M] [--no-cache] [--cache-shards N]
//                 [--memo-mb M] [--connect HOST:PORT]
//
// Global flags (any command):
//   --stats            print the metrics-registry dump after the command
//   --trace-out=FILE   record the phases the command runs on its own
//                      thread and write them as Chrome trace-event JSON
//                      (open in chrome://tracing or ui.perfetto.dev),
//                      plus a flat profile with self time on stdout
//
// Serve-mode observability: request lines starting with '!' are control
// lines — `!stats` prints a SERVE_STATS_JSON line (service + cache + lock
// contention), `!flight` prints a FLIGHT_JSON line (the recent-request
// ring), `!trace <file>` writes captured slow-request span trees as
// Chrome trace JSON, `!snapshot` persists the model and the policy
// repository to the `--state-dir` (SNAPSHOT_JSON reply). --trace-slow-ms MS captures trees
// for requests slower than MS, --trace-sample N also captures every Nth
// request. --stats-every SEC prints a SERVE_WINDOW_JSON line (rates and
// latency quantiles over the last SEC seconds) every SEC seconds.
//
// The learn-task file format is line-oriented with #section headers:
//
//   #grammar
//   request -> "do" task
//   task -> "patrol" { requires(2). }
//   #bias
//   body requires var(lvl) @2
//   body maxloa var(lvl)
//   compare lvl gt varvar
//   max_body 2
//   max_vars 2
//   #positive
//   do patrol | maxloa(3).
//   #negative
//   do strike | maxloa(3).
//
// Bias lines: `body <pred> <arg>... [@k] [neg]` with args `var(type)`,
// `const(pool)` or a literal term; `head <pred> <arg>...` plus
// `no_constraints`; `compare <type> <op>... [varvar] [varconst]` with ops
// lt le gt ge eq ne; `const <pool> <term>...`; `max_body`, `min_body`,
// `max_vars`, `max_comparisons`. Example lines: `tokens | inline context.`
// An optional `#targets` section lists the production indices hypotheses
// may be added to (default 0). `@k` must name a child of some target
// production (1 <= k <= its arity); `max_body`, `min_body` and
// `max_comparisons` lie in 0..ilp::LearnOptions::max_cost; `max_vars` >= 0.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <istream>
#include <string>
#include <vector>

#include "ilp/learner.hpp"
#include "srv/loadgen.hpp"
#include "srv/server.hpp"

namespace agenp::cli {

struct CliError : std::runtime_error {
    using std::runtime_error::runtime_error;
};

// Parses a learn-task file's text. Throws CliError on format errors.
ilp::LearningTask parse_task_file(std::string_view text);

// Individual commands; each writes human-readable output and returns the
// process exit code.
int cmd_solve(const std::string& program_path, std::size_t max_models, std::ostream& out);
int cmd_membership(const std::string& grammar_path, const std::string& sentence,
                   const std::string& context_path, std::ostream& out);
int cmd_generate(const std::string& grammar_path, const std::string& context_path,
                 std::size_t max_strings, std::ostream& out);
int cmd_learn(const std::string& task_path, const std::string& out_path, std::ostream& out);

// Static analysis (DESIGN.md §9) over a policy file: `.lp` files get the
// ASP program passes, everything else parses as an ASG and gets the full
// grammar + annotation analysis. `--context ctx.lp` declares the context's
// head predicates as externally supplied (suppresses ASP002/ASP003 for
// them); `--json` renders the machine-readable report; `--strict` also
// fails on warnings. Exit 0 = clean, 1 = findings at the gating severity,
// 2 = unreadable/unparseable input.
int cmd_lint(const std::string& path, const std::string& context_path, bool json, bool strict,
             std::ostream& out);

//   agenp evaluate <schema.xs> <policy.xp> --request "role=doctor hour=3"
// Exit code 0 = Permit, 1 = anything else.
int cmd_evaluate(const std::string& schema_path, const std::string& policy_path,
                 const std::string& request_text, std::ostream& out);

// Runs the Figure-1 workflow end to end on a built-in example domain:
// PAdaP learns a GPM from examples, PReP materializes policies, the
// PDP/PEP serve requests. Pairs with --stats/--trace-out to show the
// per-phase AGENP telemetry.
int cmd_quickstart(std::ostream& out);

// PDP-as-a-service: runs one srv::Server over the grammar and optional
// context file. Stdin mode (no `options.port`): one request per line in,
// one decision per line out — a plain token-string line is answered with
// the outcome name, a `{...}` wire-protocol line (docs/PROTOCOL.md) with
// the JSON reply, and '!'-prefixed control lines query the running
// service (see the header comment) — until EOF. Listen mode
// (`options.port`, --listen): serves the same line protocol over TCP
// until SIGTERM/SIGINT. Either way the server then drains, which prints
// the final SERVE_STATS_JSON line, and a summary with throughput and
// cache hit rate follows.
int cmd_serve(const std::string& grammar_path, const std::string& context_path,
              const srv::ServerOptions& options, std::istream& in, std::ostream& out);

struct LoadgenCliOptions {
    srv::ServiceOptions service;  // in-process service (ignored with --connect)
    srv::LoadgenOptions load;
    std::size_t distinct = 8;
    // Non-empty host: drive a remote `agenp serve --listen` server over
    // TCP instead of an in-process service.
    std::string connect_host;
    std::uint16_t connect_port = 0;
};

// Closed-loop load generator against the built-in demo serving domain
// (in-process by default, over TCP with --connect); prints the
// human-readable report plus one `LOADGEN_JSON {...}` line. Exit code 1
// when any response was dropped.
int cmd_loadgen(const LoadgenCliOptions& options, std::ostream& out);

// Pulls the service flags `serve` and in-process `loadgen` share out of
// `args` straight into `options`; an absent flag keeps the default:
//   --threads N  --cache-mb M  --no-cache  --cache-shards N  --memo-mb M
// `--cache-mb 0` gives the minimal cache (one entry per shard); use
// --no-cache to disable it. The grounding memo is off unless --memo-mb
// gives it a budget.
void take_service_flags(std::vector<std::string>& args, srv::ServiceOptions& options);

// argv-level dispatcher (used by main and by tests).
int run(const std::vector<std::string>& args, std::ostream& out, std::ostream& err);

// Reads a whole file; throws CliError when unreadable.
std::string read_file(const std::string& path);

}  // namespace agenp::cli
