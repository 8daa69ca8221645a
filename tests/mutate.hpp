// Deterministic mutation fuzzing for the text parsers' tests: one set of
// mutation operators, fed a format's own splice fragments and nesting
// brackets, over a corpus of valid inputs and a fixed mt19937_64 seed.
#pragma once

#include <cstddef>
#include <random>
#include <span>
#include <string>
#include <vector>

namespace agenp::fuzz {

// What a format contributes to the mutator: fragments worth splicing in
// (structure, escapes, number edges, bytes that are not UTF-8) and the
// bracket pair that nests it.
struct Alphabet {
    std::span<const char* const> fragments;
    char open;
    char close;
};

// How deep the wrapping mutation nests a text.
inline constexpr std::size_t kWrapDepth = 70;

// One mutant of `text`: one to three rounds of byte flips, inserts and
// deletes, fragment inserts, truncation, span duplication, splicing with
// another corpus entry, or wrapping in kWrapDepth bracket pairs.
inline std::string mutate(std::string text, const std::vector<std::string>& corpus,
                          const Alphabet& alphabet, std::mt19937_64& rng) {
    auto pick = [&rng](std::size_t n) {
        return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
    };
    for (std::size_t round = 0, rounds = 1 + pick(3); round < rounds; ++round) {
        switch (pick(8)) {
            case 0:
                if (!text.empty()) text[pick(text.size())] ^= static_cast<char>(1U << pick(8));
                break;
            case 1: text.insert(pick(text.size() + 1), 1, static_cast<char>(pick(256))); break;
            case 2: {
                const char* fragment = alphabet.fragments[pick(alphabet.fragments.size())];
                text.insert(pick(text.size() + 1), fragment);
                break;
            }
            case 3:
                if (!text.empty()) text.erase(pick(text.size()), 1 + pick(8));
                break;
            case 4: text.resize(pick(text.size() + 1)); break;
            case 5:
                if (!text.empty()) {
                    std::size_t at = pick(text.size());
                    text.insert(at, text.substr(at, 1 + pick(text.size() - at)));
                }
                break;
            case 6: {
                const std::string& other = corpus[pick(corpus.size())];
                text = text.substr(0, pick(text.size() + 1)) + other.substr(pick(other.size() + 1));
                break;
            }
            default:
                text = std::string(kWrapDepth, alphabet.open) + text +
                       std::string(kWrapDepth, alphabet.close);
                break;
        }
    }
    return text;
}

}  // namespace agenp::fuzz
