// The `agenp` command-line tool, as testable library functions.
//
//   agenp solve <program.lp> [--models N]
//   agenp membership <grammar.asg> --string "do patrol" [--context ctx.lp]
//   agenp generate <grammar.asg> [--context ctx.lp] [--max N]
//   agenp learn <task.agenp> [--out learned.asg]
//   agenp lint <file.asg|file.lp> [--context ctx.lp] [--json] [--strict]
//   agenp quickstart
//   agenp serve <grammar.asg> [--context ctx.lp] [--threads N] [--cache-mb M] [--no-cache]
//               [--cache-shards N] [--no-memo] [--memo-mb M]
//               [--trace-slow-ms MS] [--trace-sample N] [--stats-every SEC]
//               [--listen PORT] [--replicas N]
//               [--metrics-listen PORT]
//               [--audit-log FILE] [--audit-max-mb M] [--audit-sample N]
//               [--state-dir DIR] [--snapshot-every SEC]
//   agenp loadgen [--threads N] [--clients N] [--requests N] [--distinct K]
//                 [--cache-mb M] [--no-cache] [--cache-shards N]
//                 [--no-memo] [--memo-mb M] [--connect HOST:PORT]
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
// Chrome trace JSON, `!snapshot` persists the serving state to the
// `--state-dir` (SNAPSHOT_JSON reply). The tail-capture knobs default from the environment:
// AGENP_TRACE_SLOW_MS (capture trees for requests slower than this) and
// AGENP_TRACE_SAMPLE (also capture every Nth request); --trace-slow-ms /
// --trace-sample override. --stats-every SEC starts a reporter thread
// that prints SERVE_STATS_JSON every SEC seconds.
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
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <istream>
#include <string>
#include <vector>

#include "ilp/learner.hpp"

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

struct ServeCliOptions {
    std::string grammar_path;
    std::string context_path;
    std::size_t threads = 4;
    std::size_t cache_mb = 64;
    bool use_cache = true;
    std::uint64_t trace_slow_ms = 0;  // tail-capture threshold (0 = off)
    std::size_t trace_sample = 0;     // capture every Nth request (0 = off)
    std::size_t stats_every_s = 0;    // periodic SERVE_STATS_JSON reporter (0 = off)
    // TCP mode (--listen): accept wire-protocol connections instead of
    // reading stdin. Port 0 binds an ephemeral port, printed on the
    // `AGENP_LISTENING port=N` line.
    bool listen = false;
    std::uint16_t listen_port = 0;
    std::size_t replicas = 1;  // AMS replicas behind the AmsRouter
    // HTTP telemetry surface (--metrics-listen): GET /metrics serves the
    // Prometheus text exposition, /healthz liveness + drain state (503
    // while draining), /statz the SERVE_STATS_JSON body. Port 0 binds an
    // ephemeral port, printed on the `AGENP_METRICS_LISTENING port=N`
    // line. Works in both stdin and listen mode.
    bool metrics_listen = false;
    std::uint16_t metrics_listen_port = 0;
    // Decision audit log (--audit-log FILE): NDJSON, one line per finished
    // request, rotated to FILE.1 when audit_max_mb is crossed;
    // audit_sample = N keeps every Nth entry.
    std::string audit_path;
    std::size_t audit_max_mb = 64;
    std::size_t audit_sample = 1;
    // Warm restarts (--state-dir DIR): restore the decision cache, policy
    // repository, and model version from DIR on startup, append cache
    // inserts to a WAL, and write a crash-safe snapshot every
    // `snapshot_every_s` seconds (0 = only on drain and `!snapshot`).
    // The directory is created 0700 — snapshots hold full request text.
    std::string state_dir;
    std::size_t snapshot_every_s = 0;
    // Decision-cache shard count (0 = the CacheOptions default of 16;
    // rounded up to a power of two).
    std::size_t cache_shards = 0;
    // Grounding memo on the cache-miss path (--no-memo disables,
    // --memo-mb sizes the budget). See docs/PERFORMANCE.md.
    bool use_memo = true;
    std::size_t memo_mb = 32;
    // Continuous CPU profiling (--prof-hz HZ, 0 = off): start the SIGPROF
    // sampler at HZ for the life of the process. Independently of this
    // flag, `!prof start|stop|status` toggles profiling at runtime and
    // `GET /profz?seconds=N&hz=H` takes a one-shot profile over the
    // metrics listener.
    std::size_t prof_hz = 0;
    // Test hooks. `shutdown_fd`: in listen mode, poll this descriptor
    // instead of installing SIGTERM/SIGINT handlers — one readable byte
    // (or EOF) triggers the graceful drain. `announce_port`: when set,
    // the bound port is also published here; `metrics_announce_port`
    // likewise for the metrics HTTP port.
    int shutdown_fd = -1;
    std::atomic<std::uint16_t>* announce_port = nullptr;
    std::atomic<std::uint16_t>* metrics_announce_port = nullptr;
};

// PDP-as-a-service. Stdin mode (default): one request per line in, one
// decision per line out — a plain token-string line is answered with the
// outcome name, a `{...}` wire-protocol line (docs/PROTOCOL.md) with the
// JSON reply, and '!'-prefixed control lines query the running service
// (see the header comment). A summary with throughput and cache hit rate
// is printed at EOF. Listen mode (--listen): serves the same line
// protocol over TCP until SIGTERM/SIGINT, then drains gracefully.
// `cache_mb == 0` with `use_cache` still enables a minimal cache; pass
// use_cache=false to disable it.
int cmd_serve(const ServeCliOptions& options, std::istream& in, std::ostream& out);

struct LoadgenCliOptions {
    std::size_t threads = 4;  // in-process service workers (ignored with --connect)
    std::size_t clients = 4;
    std::size_t requests_per_client = 250;
    std::size_t distinct = 8;
    std::size_t cache_mb = 64;
    bool use_cache = true;
    std::size_t cache_shards = 0;  // 0 = the CacheOptions default of 16
    bool use_memo = true;          // --no-memo: ground+solve every cache miss
    std::size_t memo_mb = 32;      // grounding-memo budget (in-process mode)
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

// argv-level dispatcher (used by main and by tests).
int run(const std::vector<std::string>& args, std::ostream& out, std::ostream& err);

// Reads a whole file; throws CliError when unreadable.
std::string read_file(const std::string& path);

}  // namespace agenp::cli
