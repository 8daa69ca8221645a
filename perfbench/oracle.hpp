// Decision oracle: re-decides every reply by plain Definition-2 membership
// (asg::in_language with no memo and no cache) under the reply's context
// epoch and the model version the reply names.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "domain.hpp"

namespace pb {

struct Reply {
    std::uint32_t request = 0;  // universe index
    std::uint32_t epoch = 0;    // context epoch the request was decided under
    std::uint64_t version = 0;  // model version the reply names
    bool permit = false;
};

struct OracleReport {
    std::size_t replies = 0;       // replies checked
    std::size_t distinct = 0;      // distinct (request, epoch, version) re-decided
    std::size_t wrong = 0;         // replies that disagree with plain membership
    std::size_t unverifiable = 0;  // replies naming a model version the server never reported
    std::vector<std::string> samples;  // a few wrong replies, for the log
};

// `models` maps a model version to its grammar text. Each worker thread
// parses its own grammar copies (grammars are not shared across threads).
OracleReport check_replies(const Domain& domain, const std::map<std::uint64_t, std::string>& models,
                           const std::vector<Reply>& replies, unsigned threads);

// The paper's Fig 3a measure for one adopted model: share of the whole
// request universe where its plain-membership decision under the
// background context equals `truth`'s Permit (xacml::agreement).
double policy_agreement(const Domain& domain, const std::string& model_text,
                        const xa::XacmlPolicy& truth, unsigned threads);

}  // namespace pb
