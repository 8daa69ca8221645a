#include <gtest/gtest.h>

#include "agenp/coalition.hpp"
#include "agenp/pbms.hpp"
#include "asp/parser.hpp"
#include "xacml/generator.hpp"

namespace agenp::framework {
namespace {

using cfg::tokenize;

const char* kTaskInitial = R"(
    request -> "do" task
    task -> "patrol" { requires(2). }
    task -> "strike" { requires(4). }
    task -> "observe" { requires(1). }
)";

ilp::HypothesisSpace task_space() {
    ilp::ModeBias bias;
    bias.body.push_back(ilp::ModeAtom("requires", {ilp::ArgSpec::var("lvl")}, 2));
    bias.body.push_back(ilp::ModeAtom("maxloa", {ilp::ArgSpec::var("lvl")}));
    bias.comparisons.push_back(ilp::ComparisonMode(
        "lvl", {asp::Comparison::Op::Gt}, /*var_vs_const=*/false, /*var_vs_var=*/true));
    bias.max_body_atoms = 2;
    bias.max_vars = 2;
    return ilp::generate_space(bias, {0});
}

std::vector<ilp::Example> loa_examples(bool positive) {
    auto ctx = [](int m) { return asp::parse_program("maxloa(" + std::to_string(m) + ")."); };
    std::vector<ilp::Example> out;
    if (positive) {
        out.emplace_back(tokenize("do patrol"), ctx(3));
        out.emplace_back(tokenize("do strike"), ctx(5));
        out.emplace_back(tokenize("do observe"), ctx(1));
    } else {
        out.emplace_back(tokenize("do strike"), ctx(3));
        out.emplace_back(tokenize("do patrol"), ctx(1));
    }
    return out;
}

AutonomousManagedSystem make_ams(const std::string& name,
                                 DecisionStrategy strategy = DecisionStrategy::Membership) {
    AmsOptions options;
    options.strategy = strategy;
    return AutonomousManagedSystem(name, asg::AnswerSetGrammar::parse(kTaskInitial), task_space(),
                                   options);
}

TEST(Pip, GathersFromAllSources) {
    PolicyInformationPoint pip;
    pip.add_source("weather", [] { return asp::parse_program("weather(rain)."); });
    pip.add_source("loa", [] { return asp::parse_program("maxloa(3)."); });
    auto ctx = pip.gather();
    EXPECT_EQ(ctx.size(), 2u);
    pip.remove_source("weather");
    EXPECT_EQ(pip.gather().size(), 1u);
}

TEST(ContextRepo, StoresAndFinds) {
    ContextRepository repo;
    repo.store("mission-a", asp::parse_program("phase(planning)."));
    ASSERT_NE(repo.find("mission-a"), nullptr);
    EXPECT_EQ(repo.find("mission-a")->size(), 1u);
    EXPECT_EQ(repo.find("nope"), nullptr);
}

TEST(PolicyRepo, ReplaceAndDedupe) {
    PolicyRepository repo;
    repo.replace({tokenize("do patrol"), tokenize("do patrol"), tokenize("do observe")}, "prep", 1);
    EXPECT_EQ(repo.size(), 2u);
    EXPECT_TRUE(repo.contains(tokenize("do patrol")));
    EXPECT_FALSE(repo.contains(tokenize("do strike")));
    EXPECT_EQ(repo.version(), 1u);
}

TEST(RepresentationsRepo, VersionsAccumulate) {
    RepresentationsRepository repo;
    EXPECT_TRUE(repo.empty());
    auto g = asg::AnswerSetGrammar::parse(kTaskInitial);
    EXPECT_EQ(repo.store(g, "v1"), 1u);
    EXPECT_EQ(repo.store(g, "v2"), 2u);
    EXPECT_EQ(repo.latest_version(), 2u);
    EXPECT_EQ(repo.note_for(2), "v2");
    EXPECT_NE(repo.at_version(1), nullptr);
    EXPECT_EQ(repo.at_version(3), nullptr);
}

TEST(PolicyRepo, RestoreReloadsPersistedSetVerbatim) {
    PolicyRepository repo;
    repo.replace({tokenize("do observe")}, "prep", 9);
    // A warm restart hands back the recorded set: per-policy provenance
    // and version stamps survive, and the repository-level version and
    // truncated flag come back as recorded, not re-stamped.
    repo.restore({{tokenize("do patrol"), "prep", 3}, {tokenize("do survey"), "shared:ams2", 2}},
                 3, true);
    EXPECT_EQ(repo.size(), 2u);
    EXPECT_EQ(repo.version(), 3u);
    EXPECT_TRUE(repo.truncated());
    EXPECT_TRUE(repo.contains(tokenize("do patrol")));
    EXPECT_FALSE(repo.contains(tokenize("do observe")));  // pre-restore set gone
    EXPECT_EQ(repo.all()[1].source, "shared:ams2");
    EXPECT_EQ(repo.all()[1].version, 2u);
}

TEST(RepresentationsRepo, RestoreReseedsHistoryAtPersistedVersion) {
    RepresentationsRepository repo;
    auto g = asg::AnswerSetGrammar::parse(kTaskInitial);
    // Only the latest model was persisted; the history restarts at exactly
    // the recorded version and earlier versions resolve to nothing.
    repo.restore(g, 5, "restored note");
    EXPECT_FALSE(repo.empty());
    EXPECT_EQ(repo.latest_version(), 5u);
    EXPECT_EQ(repo.note_for(5), "restored note");
    EXPECT_NE(repo.at_version(5), nullptr);
    EXPECT_EQ(repo.at_version(4), nullptr);
    EXPECT_EQ(repo.at_version(6), nullptr);
    // Learning continues from the persisted number.
    EXPECT_EQ(repo.store(g, "post-restart"), 6u);
    EXPECT_EQ(repo.note_for(6), "post-restart");
    EXPECT_NE(repo.at_version(6), nullptr);
    // Version 0 is not a valid restore point.
    EXPECT_THROW(repo.restore(g, 0, "bad"), std::logic_error);
}

TEST(Prep, MaterializesContextDependentLanguage) {
    auto g = asg::AnswerSetGrammar::parse(kTaskInitial)
                 .with_rules({{asp::parse_rule(":- requires(L)@2, maxloa(M), L > M."), 0}});
    PolicyRepository repo;
    PolicyRefinementPoint prep;
    auto report = prep.refresh(g, asp::parse_program("maxloa(3)."), repo, 7);
    EXPECT_EQ(report.generated, 2u);  // patrol + observe
    EXPECT_TRUE(repo.contains(tokenize("do patrol")));
    EXPECT_FALSE(repo.contains(tokenize("do strike")));
    EXPECT_EQ(repo.version(), 7u);
}

TEST(Pdp, RepositoryStrategyConsultsStoredPolicies) {
    PolicyRepository repo;
    repo.replace({tokenize("do patrol")}, "prep", 1);
    PolicyDecisionPoint pdp(DecisionStrategy::Repository);
    auto g = asg::AnswerSetGrammar::parse(kTaskInitial);
    EXPECT_TRUE(pdp.decide(tokenize("do patrol"), {}, g, repo));
    EXPECT_FALSE(pdp.decide(tokenize("do strike"), {}, g, repo));
}

TEST(Monitor, AccuracyOverFeedback) {
    DecisionMonitor monitor;
    auto i0 = monitor.record({tokenize("a"), {}, true, 1, std::nullopt});
    auto i1 = monitor.record({tokenize("b"), {}, false, 1, std::nullopt});
    EXPECT_FALSE(monitor.observed_accuracy().has_value());
    EXPECT_TRUE(monitor.attach_feedback(i0, true));   // correct
    EXPECT_TRUE(monitor.attach_feedback(i1, true));   // wrong
    ASSERT_TRUE(monitor.observed_accuracy().has_value());
    EXPECT_DOUBLE_EQ(*monitor.observed_accuracy(), 0.5);
    EXPECT_EQ(monitor.feedback_records().size(), 2u);
}

TEST(Monitor, RingBufferCapsHistoryAndKeepsSequenceNumbers) {
    DecisionMonitor monitor(4);
    std::vector<std::size_t> indices;
    for (int i = 0; i < 10; ++i) {
        indices.push_back(monitor.record({tokenize("r" + std::to_string(i)), {}, true, 1, std::nullopt}));
    }
    // Indices are monotone sequence numbers, not slot positions.
    for (std::size_t i = 0; i < indices.size(); ++i) EXPECT_EQ(indices[i], i);
    EXPECT_EQ(monitor.history().size(), 4u);
    EXPECT_EQ(monitor.total_recorded(), 10u);
    EXPECT_EQ(monitor.first_index(), 6u);
    // Only the last four records survive.
    EXPECT_EQ(cfg::detokenize(monitor.history().front().request), "r6");
    EXPECT_EQ(cfg::detokenize(monitor.history().back().request), "r9");
    // Audit labels use the surviving sequence numbers.
    auto text = monitor.render_audit();
    EXPECT_EQ(text.find("#5 "), std::string::npos);
    EXPECT_NE(text.find("#6 r6 -> Permit"), std::string::npos);
    EXPECT_NE(text.find("#9 r9 -> Permit"), std::string::npos);
}

TEST(Monitor, AttachFeedbackIsBoundsChecked) {
    DecisionMonitor monitor(2);
    auto i0 = monitor.record({tokenize("a"), {}, true, 1, std::nullopt});
    auto i1 = monitor.record({tokenize("b"), {}, true, 1, std::nullopt});
    auto i2 = monitor.record({tokenize("c"), {}, true, 1, std::nullopt});  // evicts i0
    EXPECT_FALSE(monitor.attach_feedback(i0, true));   // evicted
    EXPECT_FALSE(monitor.attach_feedback(99, true));   // never issued
    EXPECT_TRUE(monitor.attach_feedback(i1, true));
    EXPECT_TRUE(monitor.attach_feedback(i2, false));
    EXPECT_EQ(monitor.feedback_records().size(), 2u);
    monitor.clear();
    // Cleared indices stay dead rather than aliasing new records.
    EXPECT_FALSE(monitor.attach_feedback(i2, true));
    auto i3 = monitor.record({tokenize("d"), {}, true, 1, std::nullopt});
    EXPECT_GT(i3, i2);
    EXPECT_TRUE(monitor.attach_feedback(i3, true));
}

TEST(Pdp, RepositoryStrategyFallsBackToMembershipWhenTruncated) {
    auto g = asg::AnswerSetGrammar::parse(kTaskInitial);
    PolicyRepository repo;
    repo.replace({tokenize("do patrol")}, "prep", 1);
    PolicyDecisionPoint pdp(DecisionStrategy::Repository);

    // Complete repository: absence is an authoritative Deny, even for a
    // string the grammar accepts.
    EXPECT_FALSE(pdp.decide(tokenize("do observe"), {}, g, repo));

    // Truncated repository: absence is inconclusive, so the PDP consults
    // the model. "do observe" is in the language; "do fly" is not.
    repo.set_truncated(true);
    EXPECT_TRUE(pdp.decide(tokenize("do patrol"), {}, g, repo));   // still served from the repo
    EXPECT_TRUE(pdp.decide(tokenize("do observe"), {}, g, repo));  // membership fallback
    EXPECT_FALSE(pdp.decide(tokenize("do fly"), {}, g, repo));

    // A full refresh clears the flag.
    repo.replace({tokenize("do patrol")}, "prep", 2);
    EXPECT_FALSE(repo.truncated());
    EXPECT_FALSE(pdp.decide(tokenize("do observe"), {}, g, repo));
}

TEST(Prep, TruncatedRefreshMarksRepository) {
    auto g = asg::AnswerSetGrammar::parse(kTaskInitial);
    PolicyRepository repo;
    PolicyRefinementPoint full_prep;
    full_prep.refresh(g, {}, repo, 1);
    EXPECT_FALSE(repo.truncated());
    EXPECT_EQ(repo.size(), 3u);

    PrepOptions tight;
    tight.language.enumeration.max_strings = 1;
    PolicyRefinementPoint tight_prep(tight);
    auto report = tight_prep.refresh(g, {}, repo, 2);
    EXPECT_TRUE(report.truncated);
    EXPECT_TRUE(repo.truncated());
    EXPECT_EQ(repo.size(), 1u);
}

TEST(Pcp, DetectsConflictRedundancyIrrelevanceIncompleteness) {
    auto s = xacml::healthcare_schema();
    xacml::XacmlPolicy p;
    p.alg = xacml::CombiningAlg::DenyOverrides;
    xacml::XacmlRule deny_guest;
    deny_guest.id = "deny-guest";
    deny_guest.effect = xacml::Effect::Deny;
    deny_guest.target.all_of.push_back(
        {0, xacml::Match::Op::Eq, xacml::AttributeValue::of(std::string("guest"))});
    xacml::XacmlRule permit_guest;  // conflicts with deny_guest
    permit_guest.id = "permit-guest";
    permit_guest.effect = xacml::Effect::Permit;
    permit_guest.target.all_of.push_back(
        {0, xacml::Match::Op::Eq, xacml::AttributeValue::of(std::string("guest"))});
    xacml::XacmlRule deny_guest_again = deny_guest;  // redundant
    deny_guest_again.id = "deny-guest-2";
    xacml::XacmlRule impossible;  // irrelevant: hour > 99 never matches
    impossible.id = "never";
    impossible.effect = xacml::Effect::Deny;
    impossible.target.all_of.push_back(
        {static_cast<std::size_t>(s.index_of("hour")), xacml::Match::Op::Gt,
         xacml::AttributeValue::of(99)});
    p.rules = {deny_guest, permit_guest, deny_guest_again, impossible};
    // No catch-all: non-guest requests are uncovered.

    auto universe = xacml::enumerate_requests(s);
    auto report = PolicyCheckingPoint::assess(p, universe);
    EXPECT_FALSE(report.consistent());
    EXPECT_FALSE(report.minimal());
    EXPECT_FALSE(report.relevant());
    EXPECT_FALSE(report.complete());
    EXPECT_EQ(report.irrelevant_rules, (std::vector<std::size_t>{3}));
    auto text = report.to_string();
    EXPECT_NE(text.find("conflict"), std::string::npos);
}

TEST(Pcp, CleanPolicyPassesAllMetrics) {
    auto s = xacml::healthcare_schema();
    xacml::XacmlPolicy p;
    p.alg = xacml::CombiningAlg::DenyOverrides;
    xacml::XacmlRule deny_guest;
    deny_guest.effect = xacml::Effect::Deny;
    deny_guest.target.all_of.push_back(
        {0, xacml::Match::Op::Eq, xacml::AttributeValue::of(std::string("guest"))});
    xacml::XacmlRule permit_rest;
    permit_rest.effect = xacml::Effect::Permit;
    permit_rest.target.all_of.push_back(
        {0, xacml::Match::Op::Ne, xacml::AttributeValue::of(std::string("guest"))});
    p.rules = {deny_guest, permit_rest};
    auto report = PolicyCheckingPoint::assess(p, xacml::enumerate_requests(s));
    EXPECT_TRUE(report.consistent());
    EXPECT_TRUE(report.relevant());
    EXPECT_TRUE(report.minimal());
    EXPECT_TRUE(report.complete());
}

TEST(Pcp, EnforceabilityFlagsUnobservableAttributes) {
    auto s = xacml::healthcare_schema();
    xacml::XacmlPolicy p;
    xacml::XacmlRule r;
    r.effect = xacml::Effect::Deny;
    r.target.all_of.push_back({static_cast<std::size_t>(s.index_of("hour")), xacml::Match::Op::Lt,
                               xacml::AttributeValue::of(2)});
    p.rules = {r};
    auto ok = PolicyCheckingPoint::assess_enforceability(p, {0, 1, 2, 3, 4});
    EXPECT_TRUE(ok.enforceable());
    auto missing_clock = PolicyCheckingPoint::assess_enforceability(p, {0, 1, 2, 3});
    EXPECT_FALSE(missing_clock.enforceable());
    EXPECT_EQ(missing_clock.unenforceable_rules, (std::vector<std::size_t>{0}));
}

TEST(Pcp, RiskTradesExposureAgainstBurden) {
    auto s = xacml::healthcare_schema();
    auto universe = xacml::enumerate_requests(s);

    xacml::XacmlPolicy permit_all;
    permit_all.alg = xacml::CombiningAlg::DenyOverrides;
    xacml::XacmlRule p;
    p.effect = xacml::Effect::Permit;
    permit_all.rules = {p};

    xacml::XacmlPolicy deny_all = permit_all;
    deny_all.rules[0].effect = xacml::Effect::Deny;

    auto open = framework::PolicyCheckingPoint::assess_risk(permit_all, universe);
    auto closed = framework::PolicyCheckingPoint::assess_risk(deny_all, universe);
    EXPECT_DOUBLE_EQ(open.exposure_ratio(), 1.0);
    EXPECT_DOUBLE_EQ(open.burden_ratio(), 0.0);
    EXPECT_DOUBLE_EQ(closed.exposure_ratio(), 0.0);
    EXPECT_DOUBLE_EQ(closed.burden_ratio(), 1.0);
}

TEST(Pcp, RiskModelWeightsRequests) {
    auto s = xacml::healthcare_schema();
    auto universe = xacml::enumerate_requests(s);
    // Deletes are 10x as dangerous to permit.
    framework::PolicyCheckingPoint::RiskModel model;
    auto action_index = static_cast<std::size_t>(s.index_of("action"));
    model.exposure = [action_index](const xacml::Request& r) {
        return r.values[action_index].text == "delete" ? 10.0 : 1.0;
    };

    // Policy A permits everything; policy B denies deletes.
    xacml::XacmlPolicy permit_all;
    permit_all.alg = xacml::CombiningAlg::DenyOverrides;
    xacml::XacmlRule p;
    p.effect = xacml::Effect::Permit;
    permit_all.rules = {p};

    xacml::XacmlPolicy no_deletes = permit_all;
    xacml::XacmlRule deny;
    deny.effect = xacml::Effect::Deny;
    deny.target.all_of.push_back(
        {action_index, xacml::Match::Op::Eq, xacml::AttributeValue::of(std::string("delete"))});
    no_deletes.rules.insert(no_deletes.rules.begin(), deny);

    auto risky = framework::PolicyCheckingPoint::assess_risk(permit_all, universe, model);
    auto safer = framework::PolicyCheckingPoint::assess_risk(no_deletes, universe, model);
    EXPECT_LT(safer.exposure_ratio(), risky.exposure_ratio());
    EXPECT_GT(safer.burden_ratio(), risky.burden_ratio());
    // Deletes are 1/3 of requests but 10/12 of the exposure mass.
    EXPECT_LT(safer.exposure_ratio(), 0.2);
}

TEST(Pcp, ViolationDetectorFindsForbiddenAcceptance) {
    auto g = asg::AnswerSetGrammar::parse(kTaskInitial);
    std::vector<ilp::Example> forbidden;
    forbidden.emplace_back(tokenize("do strike"), asp::parse_program("maxloa(1)."));
    auto report = PolicyCheckingPoint::detect_violations(g, forbidden);
    EXPECT_FALSE(report.valid());  // unconstrained grammar accepts everything

    auto constrained =
        g.with_rules({{asp::parse_rule(":- requires(L)@2, maxloa(M), L > M."), 0}});
    EXPECT_TRUE(PolicyCheckingPoint::detect_violations(constrained, forbidden).valid());
}

TEST(Ams, BootstrapLearnsAndServesDecisions) {
    auto ams = make_ams("alpha");
    ams.pip().add_source("loa", [] { return asp::parse_program("maxloa(3)."); });
    auto outcome = ams.learn_model(loa_examples(true), loa_examples(false));
    ASSERT_TRUE(outcome.adapted) << outcome.reason;
    EXPECT_EQ(ams.model_version(), 1u);

    auto [patrol_ok, i0] = ams.handle_request(tokenize("do patrol"));
    auto [strike_ok, i1] = ams.handle_request(tokenize("do strike"));
    (void)i0;
    (void)i1;
    EXPECT_TRUE(patrol_ok);
    EXPECT_FALSE(strike_ok);
    EXPECT_EQ(ams.monitor().history().size(), 2u);
}

TEST(Ams, RepositoryStrategyRefreshesOnAdoption) {
    auto ams = make_ams("beta", DecisionStrategy::Repository);
    ams.pip().add_source("loa", [] { return asp::parse_program("maxloa(3)."); });
    ASSERT_TRUE(ams.learn_model(loa_examples(true), loa_examples(false)).adapted);
    EXPECT_GT(ams.policies().size(), 0u);
    auto [patrol_ok, a] = ams.handle_request(tokenize("do patrol"));
    auto [strike_ok, b] = ams.handle_request(tokenize("do strike"));
    (void)a;
    (void)b;
    EXPECT_TRUE(patrol_ok);
    EXPECT_FALSE(strike_ok);
}

TEST(Ams, RepositoryStrategyFallsBackForStringsPastMaxLength) {
    // The enumeration cuts every string longer than max_length 4, so the
    // repository is incomplete and must say so: the PDP then asks the
    // model for what the repository never listed, instead of denying it.
    AmsOptions options;
    options.strategy = DecisionStrategy::Repository;
    options.prep.language.enumeration.max_length = 4;
    AutonomousManagedSystem ams("epsilon", asg::AnswerSetGrammar::parse(R"(
        s -> "a" s
        s -> "a"
    )"),
                                ilp::HypothesisSpace{}, options);
    PrepReport report = ams.refresh_policies();
    EXPECT_EQ(report.generated, 4u);
    EXPECT_TRUE(report.truncated);
    EXPECT_TRUE(ams.handle_request(tokenize("a a a a")).first);    // from the repository
    EXPECT_TRUE(ams.handle_request(tokenize("a a a a a")).first);  // membership fallback
    EXPECT_FALSE(ams.handle_request(tokenize("a b")).first);
}

TEST(Ams, PepEffectorObservesEnforcement) {
    auto ams = make_ams("gamma");
    ams.pip().add_source("loa", [] { return asp::parse_program("maxloa(3)."); });
    std::vector<std::pair<std::string, bool>> actions;
    ams.pep().set_effector([&](const cfg::TokenString& req, bool permitted) {
        actions.emplace_back(cfg::detokenize(req), permitted);
    });
    ams.handle_request(tokenize("do patrol"));
    ASSERT_EQ(actions.size(), 1u);
    EXPECT_EQ(actions[0].first, "do patrol");
}

TEST(Ams, MonitorDrivenAdaptationFixesBadModel) {
    auto ams = make_ams("delta");
    ams.pip().add_source("loa", [] { return asp::parse_program("maxloa(3)."); });
    // No learned model yet: the initial (unconstrained) GPM permits strikes.
    auto [strike_ok, idx] = ams.handle_request(tokenize("do strike"));
    EXPECT_TRUE(strike_ok);
    EXPECT_TRUE(ams.give_feedback(idx, false));  // operator: that was wrong
    // More feedback to cross min_feedback.
    for (const auto& [request, should] :
         std::vector<std::pair<std::string, bool>>{{"do patrol", true}, {"do observe", true},
                                                   {"do strike", false}}) {
        auto [ok, i] = ams.handle_request(tokenize(request));
        (void)ok;
        EXPECT_TRUE(ams.give_feedback(i, should));
    }
    auto outcome = ams.adapt();
    EXPECT_TRUE(outcome.triggered);
    ASSERT_TRUE(outcome.adapted) << outcome.reason;
    auto [strike_after, j] = ams.handle_request(tokenize("do strike"));
    (void)j;
    EXPECT_FALSE(strike_after);
}

TEST(Ams, AdaptationSkippedWhenAccurate) {
    auto ams = make_ams("eps");
    ams.pip().add_source("loa", [] { return asp::parse_program("maxloa(3)."); });
    ASSERT_TRUE(ams.learn_model(loa_examples(true), loa_examples(false)).adapted);
    for (const auto& [request, should] :
         std::vector<std::pair<std::string, bool>>{{"do patrol", true}, {"do strike", false},
                                                   {"do observe", true}, {"do patrol", true}}) {
        auto [ok, i] = ams.handle_request(tokenize(request));
        EXPECT_EQ(ok, should);
        EXPECT_TRUE(ams.give_feedback(i, should));
    }
    auto outcome = ams.adapt();
    EXPECT_FALSE(outcome.triggered);
    EXPECT_FALSE(outcome.adapted);
}

TEST(Ams, ForbiddenStringsBlockAdoption) {
    AmsOptions options;
    options.adaptation.forbidden.emplace_back(tokenize("do strike"),
                                              asp::parse_program("maxloa(9)."));
    AutonomousManagedSystem ams("zeta", asg::AnswerSetGrammar::parse(kTaskInitial), task_space(),
                                options);
    // These examples teach nothing about strikes under maxloa(9), so the
    // minimal hypothesis still accepts the forbidden string -> rejected.
    std::vector<ilp::Example> pos, neg;
    pos.emplace_back(tokenize("do patrol"), asp::parse_program("maxloa(3)."));
    auto outcome = ams.learn_model(pos, neg);
    EXPECT_FALSE(outcome.adapted);
    EXPECT_NE(outcome.reason.find("forbidden"), std::string::npos);
}

TEST(Padap, SimilarityCacheSkipsRelearning) {
    AdaptationOptions options;
    options.use_similarity_cache = true;
    PolicyAdaptationPoint padap(asg::AnswerSetGrammar::parse(kTaskInitial), task_space(), options);
    RepresentationsRepository repo;

    // Contexts share the weather fact, so the cache's Jaccard similarity
    // clears the reuse gate even when the LOA ceiling differs.
    auto ctx = [](int m) {
        return asp::parse_program("maxloa(" + std::to_string(m) + "). weather(clear).");
    };
    std::vector<ilp::Example> pos1 = {{tokenize("do patrol"), ctx(3)},
                                      {tokenize("do observe"), ctx(3)}};
    std::vector<ilp::Example> neg1 = {{tokenize("do strike"), ctx(3)}};
    auto first = padap.adapt_from_examples(pos1, neg1, repo, "ctx3");
    ASSERT_TRUE(first.adapted) << first.reason;
    EXPECT_FALSE(first.reused);

    // A shifted ceiling: the same LOA rule separates the new examples, so
    // the cached hypothesis is reused without an inductive search.
    std::vector<ilp::Example> pos2 = {{tokenize("do patrol"), ctx(2)}};
    std::vector<ilp::Example> neg2 = {{tokenize("do strike"), ctx(2)}};
    auto second = padap.adapt_from_examples(pos2, neg2, repo, "ctx2");
    ASSERT_TRUE(second.adapted) << second.reason;
    EXPECT_TRUE(second.reused);
    ASSERT_NE(padap.cache(), nullptr);
    EXPECT_EQ(padap.cache()->reuse_hits(), 1u);
    EXPECT_EQ(repo.latest_version(), 2u);
}

TEST(Pcp, LintModelFlagsStructuralDefects) {
    // An arity clash inside an annotation is an error-severity finding.
    auto broken = asg::AnswerSetGrammar::parse(R"(
        s -> "x" { p(1). p(2, 3). q :- p(1). }
    )");
    auto sink = PolicyCheckingPoint::lint_model(broken);
    EXPECT_TRUE(sink.has_errors());
    EXPECT_NE(sink.find(analysis::codes::kArityMismatch), nullptr);

    // The task grammar is structurally sound; context predicates surface
    // as warnings at worst.
    auto clean = PolicyCheckingPoint::lint_model(asg::AnswerSetGrammar::parse(kTaskInitial));
    EXPECT_FALSE(clean.has_errors()) << clean.render_text();
}

// A single-candidate space whose only hypothesis is functional (it rejects
// the negative examples at solve time) but structurally broken: it uses
// maxloa at two arities, which the static lint flags as ASP004.
ilp::HypothesisSpace defective_space() {
    ilp::HypothesisSpace space;
    ilp::Candidate c;
    c.rule = asp::parse_rule(":- requires(L)@2, maxloa(M), maxloa(M, M), L > M.");
    c.production = 0;
    c.cost = 4;
    space.candidates.push_back(std::move(c));
    return space;
}

std::vector<ilp::Example> mixed_arity_examples(bool positive) {
    auto ctx = [](int m) {
        return asp::parse_program("maxloa(" + std::to_string(m) + "). maxloa(" +
                                  std::to_string(m) + ", " + std::to_string(m) + ").");
    };
    std::vector<ilp::Example> out;
    if (positive) {
        out.emplace_back(tokenize("do patrol"), ctx(3));
        out.emplace_back(tokenize("do observe"), ctx(3));
    } else {
        out.emplace_back(tokenize("do strike"), ctx(3));
    }
    return out;
}

TEST(Padap, StaticLintRejectsDefectiveHypothesis) {
    PolicyAdaptationPoint padap(asg::AnswerSetGrammar::parse(kTaskInitial), defective_space());
    RepresentationsRepository repo;
    auto outcome = padap.adapt_from_examples(mixed_arity_examples(true),
                                             mixed_arity_examples(false), repo, "lint-gate");
    // Learning succeeds (the candidate separates the examples), but the
    // lint gate blocks adoption.
    ASSERT_TRUE(outcome.learn_result.found) << outcome.learn_result.failure_reason;
    EXPECT_FALSE(outcome.adapted);
    EXPECT_NE(outcome.reason.find("static lint"), std::string::npos) << outcome.reason;
    EXPECT_NE(outcome.reason.find("ASP004"), std::string::npos) << outcome.reason;
    EXPECT_TRUE(repo.empty());
}

TEST(Padap, StaticLintGateCanBeDisabled) {
    AdaptationOptions options;
    options.static_lint = false;
    PolicyAdaptationPoint padap(asg::AnswerSetGrammar::parse(kTaskInitial), defective_space(),
                                options);
    RepresentationsRepository repo;
    auto outcome = padap.adapt_from_examples(mixed_arity_examples(true),
                                             mixed_arity_examples(false), repo, "no-gate");
    ASSERT_TRUE(outcome.adapted) << outcome.reason;
    EXPECT_EQ(repo.latest_version(), 1u);
}

TEST(Padap, StaticLintAcceptsCleanHypothesis) {
    // The standard LOA task: the learned constraint lints clean, so the
    // gate stays out of the way.
    PolicyAdaptationPoint padap(asg::AnswerSetGrammar::parse(kTaskInitial), task_space());
    RepresentationsRepository repo;
    auto outcome = padap.adapt_from_examples(loa_examples(true), loa_examples(false), repo, "ok");
    ASSERT_TRUE(outcome.adapted) << outcome.reason;
}

TEST(Monitor, AuditLogRendersHistory) {
    DecisionMonitor monitor;
    auto i0 = monitor.record({tokenize("do patrol"), {}, true, 1, std::nullopt});
    monitor.record({tokenize("do strike"), {}, false, 2, std::nullopt});
    EXPECT_TRUE(monitor.attach_feedback(i0, false));  // that permit was wrong
    auto text = monitor.render_audit();
    EXPECT_NE(text.find("#0 do patrol -> Permit (model v1) [WRONG]"), std::string::npos);
    EXPECT_NE(text.find("#1 do strike -> Deny (model v2)"), std::string::npos);
    EXPECT_NE(text.find("decisions: 2, permitted: 1, feedback: 1"), std::string::npos);
    EXPECT_NE(text.find("observed accuracy: 0.000"), std::string::npos);
    EXPECT_NE(text.find("pre-v2 decisions: 1"), std::string::npos);
}

TEST(Monitor, AuditLogTailOnly) {
    DecisionMonitor monitor;
    for (int i = 0; i < 5; ++i) monitor.record({tokenize("r" + std::to_string(i)), {}, true, 1, std::nullopt});
    auto text = monitor.render_audit(2);
    EXPECT_EQ(text.find("#0 "), std::string::npos);
    EXPECT_NE(text.find("#3 "), std::string::npos);
    EXPECT_NE(text.find("#4 "), std::string::npos);
}

TEST(Pbms, CharacterizationBoundsTheAms) {
    PolicyBasedManagementSystem pbms;
    PolicyCharacterization c;
    c.grammar_text = kTaskInitial;
    c.root_constraints = asp::parse_program(":- requires(L)@2, L > 4.");  // hard ceiling
    c.forbidden.emplace_back(tokenize("do strike"), asp::parse_program("maxloa(9)."));
    c.space = task_space();
    pbms.define("convoy-ops", std::move(c));
    EXPECT_EQ(pbms.characterization_count(), 1u);
    ASSERT_NE(pbms.find("convoy-ops"), nullptr);

    auto ams = pbms.instantiate("alpha", "convoy-ops");
    ams.pip().add_source("loa", [] { return asp::parse_program("maxloa(9)."); });
    // The root constraint is active before any learning... requires(4) <= 4,
    // so strike is still syntactically permitted by the fixed part.
    auto [strike_ok, i] = ams.handle_request(tokenize("do strike"));
    (void)i;
    EXPECT_TRUE(strike_ok);
    // But the managing party's forbidden boundary blocks adopting any model
    // that would keep accepting it.
    std::vector<ilp::Example> pos = {{tokenize("do patrol"), asp::parse_program("maxloa(3).")}};
    auto outcome = ams.learn_model(pos, {});
    EXPECT_FALSE(outcome.adapted);
    EXPECT_NE(outcome.reason.find("forbidden"), std::string::npos);
}

TEST(Pbms, RootConstraintsRestrictLanguage) {
    PolicyBasedManagementSystem pbms;
    PolicyCharacterization c;
    c.grammar_text = kTaskInitial;
    c.root_constraints = asp::parse_program(":- requires(L)@2, L > 2.");
    c.space = task_space();
    pbms.define("tight", std::move(c));
    auto ams = pbms.instantiate("beta", "tight");
    ams.pip().add_source("loa", [] { return asp::parse_program("maxloa(9)."); });
    auto [strike_ok, a] = ams.handle_request(tokenize("do strike"));
    auto [patrol_ok, b] = ams.handle_request(tokenize("do patrol"));
    (void)a;
    (void)b;
    EXPECT_FALSE(strike_ok);  // blocked by the managing party's ceiling
    EXPECT_TRUE(patrol_ok);
}

TEST(Pbms, UnknownCharacterizationThrows) {
    PolicyBasedManagementSystem pbms;
    EXPECT_THROW(pbms.instantiate("x", "nope"), std::out_of_range);
}

TEST(Coalition, SharingPropagatesLearnedModels) {
    auto alpha = make_ams("alpha");
    auto beta = make_ams("beta");
    alpha.pip().add_source("loa", [] { return asp::parse_program("maxloa(3)."); });
    beta.pip().add_source("loa", [] { return asp::parse_program("maxloa(3)."); });
    ASSERT_TRUE(alpha.learn_model(loa_examples(true), loa_examples(false)).adapted);

    Coalition coalition;
    coalition.add_member(&alpha);
    coalition.add_member(&beta);
    coalition.publish(alpha);
    EXPECT_EQ(coalition.distribute_latest(), 1u);

    // Beta now enforces alpha's learned policy without having learned.
    auto [strike_ok, i] = beta.handle_request(tokenize("do strike"));
    (void)i;
    EXPECT_FALSE(strike_ok);
    EXPECT_EQ(beta.model_version(), 1u);
}

TEST(Coalition, ImportRejectedWhenItViolatesLocalConstraints) {
    auto alpha = make_ams("alpha");
    alpha.pip().add_source("loa", [] { return asp::parse_program("maxloa(3)."); });
    // Alpha learns nothing restrictive (no negatives): permissive model.
    ASSERT_TRUE(alpha.learn_model(loa_examples(true), {}).adapted);

    AmsOptions strict;
    strict.adaptation.forbidden.emplace_back(tokenize("do strike"),
                                             asp::parse_program("maxloa(3)."));
    AutonomousManagedSystem beta("beta", asg::AnswerSetGrammar::parse(kTaskInitial), task_space(),
                                 strict);
    Coalition coalition;
    coalition.add_member(&alpha);
    coalition.add_member(&beta);
    coalition.publish(alpha);
    EXPECT_EQ(coalition.distribute_latest(), 0u);  // beta refuses the permissive model
    EXPECT_EQ(beta.model_version(), 0u);
}

}  // namespace
}  // namespace agenp::framework
