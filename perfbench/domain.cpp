#include "domain.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "asp/parser.hpp"
#include "xacml/generator.hpp"

namespace pb {

namespace asg = agenp::asg;
namespace asp = agenp::asp;
namespace util = agenp::util;

bool parse_workload(std::string_view name, Workload& out) {
    if (name == "hot_zipf") {
        out = Workload::HotZipf;
    } else if (name == "churn_miss") {
        out = Workload::ChurnMiss;
    } else if (name == "drift_adapt") {
        out = Workload::DriftAdapt;
    } else {
        return false;
    }
    return true;
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t tag) {
    util::Rng rng(seed * 0x9e3779b97f4a7c15ULL ^ (tag + 0x632be59bd9b4e019ULL));
    rng.next();
    return rng.next();
}

namespace {

enum : std::uint64_t {
    kTagBackground = 1,
    kTagSuspended = 2,
    kTagTruth = 3,
    kTagFeedback = 4,
    kTagStream = 5,
    kTagPermutation = 6,
};

xa::Schema coalition_health_schema() {
    using xa::AttributeDef;
    using xa::Category;
    xa::Schema s;
    s.attributes.push_back(AttributeDef::categorical(
        "role", Category::Subject,
        {"doctor", "nurse", "admin", "guest", "intern", "surgeon", "clerk", "auditor"}));
    s.attributes.push_back(AttributeDef::categorical(
        "dept", Category::Subject, {"cardio", "radio", "er", "icu", "peds", "onco"}));
    s.attributes.push_back(
        AttributeDef::categorical("action", Category::Action, {"read", "write", "delete", "share"}));
    s.attributes.push_back(AttributeDef::categorical(
        "resource", Category::Resource, {"record", "report", "image", "lab", "billing", "schedule"}));
    s.attributes.push_back(AttributeDef::numeric_range("hour", Category::Environment, 0, 23));
    return s;
}

// 8 seniority + 6 floor + 10 on-call facts: context the grounder must carry
// at every parse node, though no rule reads it.
std::string make_background(const xa::Schema& schema, std::uint64_t seed) {
    util::Rng rng(mix(seed, kTagBackground));
    const auto& roles = schema.attributes[0].values;
    const auto& depts = schema.attributes[1].values;
    std::string out;
    for (const auto& r : roles) out += "seniority(" + r + "," + std::to_string(rng.uniform(1, 9)) + ").\n";
    for (const auto& d : depts) out += "floor(" + d + "," + std::to_string(rng.uniform(0, 7)) + ").\n";
    std::set<std::pair<std::size_t, std::size_t>> oncall;
    while (oncall.size() < 10) {
        oncall.insert({static_cast<std::size_t>(rng.uniform(0, static_cast<std::int64_t>(roles.size()) - 1)),
                       static_cast<std::size_t>(rng.uniform(0, static_cast<std::int64_t>(depts.size()) - 1))});
    }
    for (const auto& [r, d] : oncall) out += "oncall(" + roles[r] + "," + depts[d] + ").\n";
    return out;
}

}  // namespace

std::shared_ptr<const Domain> make_domain(std::uint64_t seed) {
    auto d = std::make_shared<Domain>();
    d->seed = seed;
    d->schema = coalition_health_schema();
    d->roles = d->schema.attributes[0].values;
    d->background_text = make_background(d->schema, seed);
    xa::BridgeOptions options;
    options.background = asp::parse_program(d->background_text);
    d->bridge = xa::make_bridge(d->schema, options);
    d->universe = xa::enumerate_requests(d->schema);
    d->tokens.reserve(d->universe.size());
    d->text.reserve(d->universe.size());
    for (const auto& r : d->universe) {
        d->tokens.push_back(xa::request_tokens(d->schema, r));
        d->text.push_back(agenp::cfg::detokenize(d->tokens.back()));
    }
    // The served grammar: the bridge grammar plus one hand-written root
    // constraint over the decision-relevant context.
    auto served = d->bridge.grammar.with_rules({{asp::parse_rule(":- role(R)@1, suspended(R)."), 0}});
    d->grammar_text = served.to_string();
    return d;
}

std::string context_text(const Domain& domain, std::uint64_t epoch) {
    util::Rng rng(mix(domain.seed ^ (epoch * 0x2545f4914f6cdd1dULL), kTagSuspended));
    std::set<std::string> suspended;
    while (suspended.size() < 2) suspended.insert(rng.choice(domain.roles));
    std::string out = domain.background_text;
    for (const auto& r : suspended) out += "suspended(" + r + ").\n";
    out += "roster(" + std::to_string(epoch) + ").\n";
    return out;
}

xa::XacmlPolicy truth(const Domain& domain, std::uint64_t phase) {
    return xa::default_permit_family(
        domain.schema, {.deny_rules = 3, .matches_per_rule = 2, .seed = mix(domain.seed + phase, kTagTruth)});
}

LabelledFeedback labelled_feedback(const Domain& domain, std::uint64_t phase) {
    auto policy = truth(domain, phase);
    util::Rng rng(mix(domain.seed + phase, kTagFeedback));
    auto background = domain.bridge.options.background;
    LabelledFeedback out;
    std::set<std::size_t> seen;
    for (std::size_t i = 0; i < kLearnLogSize; ++i) {
        auto index = static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(domain.universe.size()) - 1));
        if (!seen.insert(index).second) continue;
        bool permit = xa::evaluate(policy, domain.universe[index]) == xa::Decision::Permit;
        (permit ? out.positive : out.negative).emplace_back(domain.tokens[index], background);
    }
    return out;
}

std::vector<agenp::ilp::Example> forbidden_examples(const Domain& domain) {
    auto context = asp::parse_program(context_text(domain, 0));
    std::set<std::string> suspended;
    for (const auto& rule : context.rules()) {
        if (rule.head && rule.head->predicate.str() == "suspended") {
            suspended.insert(rule.head->args[0].to_string());
        }
    }
    std::vector<agenp::ilp::Example> out;
    util::Rng rng(mix(domain.seed, kTagSuspended + 100));
    while (out.size() < 16) {
        const auto& r = domain.universe[static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(domain.universe.size()) - 1))];
        if (!suspended.contains(r.values[0].to_string())) continue;
        out.emplace_back(xa::request_tokens(domain.schema, r), context);
    }
    return out;
}

std::unique_ptr<fw::AutonomousManagedSystem> make_ams(const Domain& domain,
                                                      asg::AnswerSetGrammar grammar) {
    fw::AmsOptions options;
    options.adaptation.lint.external_predicates.push_back(util::Symbol("suspended"));
    options.adaptation.forbidden = forbidden_examples(domain);
    options.monitor_capacity = kMonitorCapacity;
    return std::make_unique<fw::AutonomousManagedSystem>("perfbench", std::move(grammar),
                                                         domain.bridge.space, options);
}

RequestStream::RequestStream(const Domain& domain, Workload workload, std::uint64_t seed)
    : zipf_(workload != Workload::ChurnMiss), rng_(mix(seed, kTagStream + static_cast<std::uint64_t>(workload))) {
    std::size_t n = domain.universe.size();
    by_rank_.resize(n);
    for (std::size_t i = 0; i < n; ++i) by_rank_[i] = static_cast<std::uint32_t>(i);
    util::Rng perm(mix(seed, kTagPermutation));
    perm.shuffle(by_rank_);
    if (zipf_) {
        cdf_.resize(n);
        double total = 0;
        for (std::size_t k = 0; k < n; ++k) {
            total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
            cdf_[k] = total;
        }
        for (auto& c : cdf_) c /= total;
    }
}

std::uint32_t RequestStream::next() {
    if (!zipf_) {
        return by_rank_[static_cast<std::size_t>(
            rng_.uniform(0, static_cast<std::int64_t>(by_rank_.size()) - 1))];
    }
    double u = rng_.uniform01();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    auto rank = static_cast<std::size_t>(std::min<std::ptrdiff_t>(
        it - cdf_.begin(), static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
    return by_rank_[rank];
}

}  // namespace pb
