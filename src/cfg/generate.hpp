// Bounded enumeration of the strings of a CFG.
//
// PReP uses this to materialize the candidate policy space before filtering
// it through the ASG's semantic conditions (DESIGN.md "Generation").
#pragma once

#include "cfg/grammar.hpp"

namespace agenp::cfg {

struct GenerateOptions {
    std::size_t max_strings = 10000;   // stop after this many sentences
    std::size_t max_length = 32;       // drop sentential forms longer than this (truncates)
    std::size_t max_expansions = 1000000;  // overall work budget
};

// Enumerates distinct sentences of `grammar` (shortest-first by expansion
// order). Truncation is silent by design: callers that care inspect
// GenerateResult::truncated.
struct GenerateResult {
    std::vector<TokenString> strings;
    bool truncated = false;
};

GenerateResult generate_strings(const Grammar& grammar, const GenerateOptions& options = {});

}  // namespace agenp::cfg
