// Self-test of the benchmark's own machinery: the tail summary and JSON
// printer, and the decision oracle (it must pass correct replies and flag
// a planted wrong one). Exits non-zero on the first failed check.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "asg/membership.hpp"
#include "asp/parser.hpp"
#include "domain.hpp"
#include "oracle.hpp"
#include "srv/wire.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
}

void test_printer() {
    std::vector<double> v;
    for (int i = 1; i <= 2000; ++i) v.push_back(i);
    auto t = pb::summarize_tail(v);
    check(t.p50 == 1000 && t.tail == 1980 && t.tail_percentile == 99 && t.samples == 2000,
          "summarize_tail: p50 and p99 of 1..2000");
    std::vector<double> small(50, 1.0);
    small.back() = 9;
    auto s = pb::summarize_tail(small);
    check(s.tail_percentile == 50, "summarize_tail: a 50-sample tail falls back to the median");
    check(pb::summarize_tail({}).samples == 0, "summarize_tail: empty sample");

    auto line = pb::JsonLine().num("a_us", 1.5).integer("n", 7).boolean("ok", true).str("s", "q\"x").done();
    check(line == R"({"a_us":1.5,"n":7,"ok":true,"s":"q\"x"})", "JsonLine renders " + line);
    auto parsed = agenp::srv::parse_json(line);
    check(parsed && parsed->find("a_us") && parsed->find("a_us")->number == 1.5,
          "JsonLine output parses as JSON");
    auto precise = pb::JsonLine().num("v", 0.123456789).done();
    check(precise == R"({"v":0.123456789})", "JsonLine keeps measured digits");
}

void test_oracle() {
    auto domain = pb::make_domain(7);
    auto grammar = agenp::asg::AnswerSetGrammar::parse(domain->grammar_text);
    std::map<std::uint64_t, std::string> models{{0, domain->grammar_text}};
    std::vector<pb::Reply> replies;
    for (std::uint32_t epoch = 0; epoch < 3; ++epoch) {
        auto context = agenp::asp::parse_program(pb::context_text(*domain, epoch));
        for (std::uint32_t r = 0; r < domain->universe.size(); r += 997) {
            bool truth = agenp::asg::in_language(grammar, domain->tokens[r], context);
            replies.push_back({r, epoch, 0, truth});
        }
    }
    bool some_denied = false;
    for (const auto& r : replies) some_denied |= !r.permit;
    check(some_denied, "the suspended-role constraint denies some requests");

    auto clean = pb::check_replies(*domain, models, replies, 2);
    check(clean.wrong == 0 && clean.unverifiable == 0 && clean.distinct == replies.size(),
          "oracle accepts correct replies (" + std::to_string(clean.distinct) + " distinct)");

    auto planted = replies;
    planted[5].permit = !planted[5].permit;
    planted.push_back(planted[5]);  // the same wrong reply twice counts twice
    auto bad = pb::check_replies(*domain, models, planted, 2);
    check(bad.wrong == 2 && bad.samples.size() == 1, "oracle flags a planted wrong reply");

    planted = replies;
    planted[0].version = 9;
    auto unknown = pb::check_replies(*domain, models, planted, 1);
    check(unknown.unverifiable == 1, "oracle counts replies naming an unknown model version");

    // Different epochs suspend different roles, so context changes decide.
    bool epoch_matters = false;
    for (std::uint32_t epoch = 1; epoch < 20 && !epoch_matters; ++epoch) {
        epoch_matters = pb::context_text(*domain, epoch).find("suspended") !=
                            std::string::npos &&
                        pb::context_text(*domain, epoch) != pb::context_text(*domain, 0);
    }
    check(epoch_matters, "context epochs differ");
}

// policy_agreement drops the background facts, which no rule reads; the
// decisions, and so the agreement, must not change.
void test_agreement_without_background() {
    auto domain = pb::make_domain(11);
    auto served = agenp::asg::AnswerSetGrammar::parse(domain->grammar_text);
    auto model = served.with_rules({{agenp::asp::parse_rule(":- action(delete)@3, hour(H)@5, H >= 20."), 0}});
    auto truth = pb::truth(*domain, 0);
    std::vector<agenp::xacml::Request> sample;
    for (std::size_t i = 0; i < domain->universe.size(); i += 53) sample.push_back(domain->universe[i]);
    auto bare = domain->bridge;
    bare.options.background = agenp::asp::Program();
    double with_background = agenp::xacml::agreement(domain->bridge, model, truth, sample);
    double without = agenp::xacml::agreement(bare, model, truth, sample);
    check(with_background == without && with_background < 1.0,
          "agreement is the same without the background facts (" + std::to_string(without) + ")");
}

}  // namespace

int main() {
    test_printer();
    test_oracle();
    test_agreement_without_background();
    std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
    return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
