#include "agenp/prep.hpp"

#include "obs/metrics.hpp"
#include "obs/phase.hpp"

namespace agenp::framework {

PrepReport PolicyRefinementPoint::refresh(const asg::AnswerSetGrammar& model,
                                          const asp::Program& context, PolicyRepository& repo,
                                          std::uint64_t version) {
    obs::Phase phase(obs::PhaseId::PrepRefresh);

    auto result = asg::language(model, context, options_.language);
    PrepReport report;
    report.generated = result.strings.size();
    report.truncated = result.truncated;
    repo.replace(std::move(result.strings), "prep", version);
    repo.set_truncated(result.truncated);

    if (obs::metrics_enabled()) {
        auto& m = obs::metrics();
        static obs::Counter& generated = m.counter("agenp.prep.policies_generated");
        static obs::Counter& truncated = m.counter("agenp.prep.truncated");
        generated.add(report.generated);
        if (report.truncated) truncated.add(1);
    }
    return report;
}

}  // namespace agenp::framework
