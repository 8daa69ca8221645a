// docs/PROTOCOL.md conformance: every example exchange in the protocol
// document is replayed verbatim against a live `agenp serve --listen`
// server (the srv::Server `agenp serve` runs, real TCP socket). If the shipped behavior
// drifts from the spec, this test fails — and names the drifting line.
// A deterministic mutation fuzzer then feeds the wire parsers damaged
// versions of the same request lines.
//
// Transcript conventions (defined in the document itself):
//   C:  a line the client sends
//   S:  the server's reply, compared structurally; the fields the
//       document declares volatile (latency_us, trace_id) need only be
//       present, every other field must match exactly
//   S~  asserts only a prefix of the raw reply line
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "asp/parser.hpp"
#include "mutate.hpp"
#include "srv/server.hpp"
#include "srv/transport.hpp"
#include "srv/wire.hpp"

namespace agenp::srv {
namespace {

// Every bad_request message parse_wire_request can produce, each with a
// line that produces it. PROTOCOL.md's catalogue lists exactly these.
const std::pair<const char*, const char*> kBadRequestCatalogue[] = {
    {"[1,2,3]", "line is not a JSON object"},
    {R"({"id":"seven","decide":"do patrol"})", "field 'id' must be a non-negative integer"},
    {R"({"decide":"do patrol","op":"ping"})", "request cannot carry both 'decide' and 'op'"},
    {R"({"decide":42})", "field 'decide' must be a string"},
    {R"({"decide":""})", "field 'decide' must not be empty"},
    {R"({"op":"reboot"})", "unknown op (supported: ping)"},
    {"{}", "request needs a 'decide' or 'op' field"},
    {R"({"decide":"x","timeout_ms":-1})", "field 'timeout_ms' must be a non-negative integer"},
};

std::string read_whole_file(const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

// One step of a transcript: a client send, an exact reply, or a prefix
// assertion, tagged with the PROTOCOL.md line it came from.
struct Step {
    enum class Kind { Send, Expect, ExpectPrefix };
    Kind kind;
    std::string text;
    std::size_t doc_line;
};

// Pulls every fenced block with the given language tag out of the
// markdown, in document order.
std::vector<std::string> fenced_blocks(const std::string& doc, const std::string& lang) {
    std::vector<std::string> blocks;
    std::istringstream in(doc);
    std::string line;
    bool inside = false;
    std::string current;
    while (std::getline(in, line)) {
        if (!inside && line == "```" + lang) {
            inside = true;
            current.clear();
        } else if (inside && line == "```") {
            inside = false;
            blocks.push_back(current);
        } else if (inside) {
            current += line;
            current += '\n';
        }
    }
    return blocks;
}

// Parses every ```jsonl transcript into one flat step list (the examples
// share a single server and a single connection, in document order).
std::vector<Step> transcript_steps(const std::string& doc) {
    std::vector<Step> steps;
    std::istringstream in(doc);
    std::string line;
    std::size_t doc_line = 0;
    bool inside = false;
    while (std::getline(in, line)) {
        ++doc_line;
        if (!inside && line == "```jsonl") {
            inside = true;
        } else if (inside && line == "```") {
            inside = false;
        } else if (inside) {
            if (line.rfind("C: ", 0) == 0) {
                steps.push_back({Step::Kind::Send, line.substr(3), doc_line});
            } else if (line.rfind("S: ", 0) == 0) {
                steps.push_back({Step::Kind::Expect, line.substr(3), doc_line});
            } else if (line.rfind("S~ ", 0) == 0) {
                steps.push_back({Step::Kind::ExpectPrefix, line.substr(3), doc_line});
            } else {
                ADD_FAILURE() << "PROTOCOL.md line " << doc_line
                              << ": transcript line without C:/S:/S~ marker: " << line;
            }
        }
    }
    return steps;
}

// The document declares these reply fields volatile: present, value ignored.
bool is_volatile_key(const std::string& key) {
    return key == "latency_us" || key == "trace_id";
}

bool json_equal(const srv::JsonValue& a, const srv::JsonValue& b);

bool json_equal(const srv::JsonValue& a, const srv::JsonValue& b) {
    if (a.type != b.type) return false;
    switch (a.type) {
        case srv::JsonValue::Type::Null: return true;
        case srv::JsonValue::Type::Bool: return a.boolean == b.boolean;
        case srv::JsonValue::Type::Number: return a.number == b.number;
        case srv::JsonValue::Type::String: return a.string == b.string;
        case srv::JsonValue::Type::Array: {
            if (a.array.size() != b.array.size()) return false;
            for (std::size_t i = 0; i < a.array.size(); ++i) {
                if (!json_equal(a.array[i], b.array[i])) return false;
            }
            return true;
        }
        case srv::JsonValue::Type::Object: {
            if (a.object.size() != b.object.size()) return false;
            for (const auto& [key, value] : a.object) {
                const srv::JsonValue* other = b.find(key);
                if (other == nullptr || !json_equal(value, *other)) return false;
            }
            return true;
        }
    }
    return false;
}

// Structural reply comparison: identical key sets, identical values,
// except that volatile keys only need to exist on the actual reply.
void expect_reply_matches(const std::string& expected_text, const std::string& actual_text,
                          std::size_t doc_line) {
    auto expected = srv::parse_json(expected_text);
    ASSERT_TRUE(expected.has_value())
        << "PROTOCOL.md line " << doc_line << " is not valid JSON: " << expected_text;
    auto actual = srv::parse_json(actual_text);
    ASSERT_TRUE(actual.has_value())
        << "server reply for PROTOCOL.md line " << doc_line << " is not valid JSON: "
        << actual_text;
    ASSERT_TRUE(expected->is_object() && actual->is_object())
        << "PROTOCOL.md line " << doc_line << ": both sides must be objects";

    std::set<std::string> expected_keys;
    for (const auto& [key, value] : expected->object) expected_keys.insert(key);
    std::set<std::string> actual_keys;
    for (const auto& [key, value] : actual->object) actual_keys.insert(key);
    EXPECT_EQ(expected_keys, actual_keys)
        << "PROTOCOL.md line " << doc_line << "\n  spec:   " << expected_text
        << "\n  server: " << actual_text;

    for (const auto& [key, value] : expected->object) {
        const srv::JsonValue* got = actual->find(key);
        ASSERT_NE(got, nullptr) << "PROTOCOL.md line " << doc_line << ": reply lacks field '"
                                << key << "'\n  server: " << actual_text;
        if (is_volatile_key(key)) continue;  // presence is the contract
        EXPECT_TRUE(json_equal(value, *got))
            << "PROTOCOL.md line " << doc_line << ": field '" << key << "' differs"
            << "\n  spec:   " << expected_text << "\n  server: " << actual_text;
    }
}

TEST(Protocol, ShippedExamplesRoundTripAgainstLiveServer) {
    const std::string doc = read_whole_file(std::string(AGENP_SOURCE_DIR) + "/docs/PROTOCOL.md");

    // The example session declares its grammar and context in the first
    // ```asg / ```lp blocks; the server is launched with exactly those.
    auto grammars = fenced_blocks(doc, "asg");
    auto contexts = fenced_blocks(doc, "lp");
    ASSERT_FALSE(grammars.empty()) << "PROTOCOL.md lost its ```asg example grammar";
    ASSERT_FALSE(contexts.empty()) << "PROTOCOL.md lost its ```lp example context";
    auto steps = transcript_steps(doc);
    ASSERT_FALSE(steps.empty()) << "PROTOCOL.md lost its ```jsonl transcripts";

    srv::ServerOptions options;
    options.router.service.threads = 2;
    options.router.replicas = 1;  // the document pins "replicas":1 in ping replies
    // The `!snapshot` example needs somewhere to persist to.
    options.state_dir = std::string(::testing::TempDir()) + "protocol_state";
    options.port = 0;
    std::ostringstream serve_out;
    srv::Server server(policy_factory(grammars.front(), asp::parse_program(contexts.front())),
                       options, serve_out);

    {
        srv::TcpClient client("127.0.0.1", server.port());
        for (const auto& step : steps) {
            switch (step.kind) {
                case Step::Kind::Send: client.send_line(step.text); break;
                case Step::Kind::Expect: {
                    auto reply = client.recv_line();
                    ASSERT_TRUE(reply.has_value())
                        << "no reply for PROTOCOL.md line " << step.doc_line;
                    expect_reply_matches(step.text, *reply, step.doc_line);
                    break;
                }
                case Step::Kind::ExpectPrefix: {
                    auto reply = client.recv_line();
                    ASSERT_TRUE(reply.has_value())
                        << "no reply for PROTOCOL.md line " << step.doc_line;
                    EXPECT_EQ(reply->rfind(step.text, 0), 0u)
                        << "PROTOCOL.md line " << step.doc_line << ": expected prefix '"
                        << step.text << "', got: " << *reply;
                    break;
                }
            }
        }
    }

    server.drain();
    EXPECT_NE(serve_out.str().find("AGENP_LISTENING port="), std::string::npos);
    EXPECT_NE(serve_out.str().find("SERVE_STATS_JSON "), std::string::npos);
    std::remove((options.state_dir + "/snapshot.agenp").c_str());
    ::rmdir(options.state_dir.c_str());
}

// The catalogue at the bottom of the document must stay in lockstep with
// the parser: every listed message must be producible, and the parser
// must not produce messages the catalogue misses (spot-checked via the
// transcript above; here we pin the full list against parse_wire_request).
TEST(Protocol, BadRequestCatalogueMatchesParser) {
    const std::string doc = read_whole_file(std::string(AGENP_SOURCE_DIR) + "/docs/PROTOCOL.md");
    for (const auto& [line, message] : kBadRequestCatalogue) {
        std::string error;
        EXPECT_FALSE(srv::parse_wire_request(line, &error).has_value()) << line;
        EXPECT_EQ(error, message) << line;
        EXPECT_NE(doc.find(std::string("`") + message + "`"), std::string::npos)
            << "catalogue in PROTOCOL.md is missing: " << message;
    }
}

// --- mutation fuzzing ---------------------------------------------------------

// Valid request lines the mutator starts from, next to every client line
// of PROTOCOL.md's transcripts: escapes, surrogate pairs, exponents,
// duplicate keys, nested extra fields and the largest exact id.
const char* const kWireCorpus[] = {
    R"({"decide":"do patrol"})",
    R"({"id":0,"decide":"do strike","timeout_ms":250})",
    R"({"id":9007199254740992,"op":"ping"})",
    R"( { "decide" : "do\tpatrol" , "id" : 12 } )",
    R"({"decide":"do patrol 😀 \ud83d\ude00","extra":[1,-2.5e3,true,false,null,{"a":{}}]})",
    R"({"op":"ping","id":1e2,"timeout_ms":0.0})",
    R"({"decide":"do patrol","decide":"do strike"})",
    R"({"id":3,"decide":"\"quoted\" \\ back\/slash \b\f\n\r\t é \u00e9"})",
};

// Fragments worth splicing into JSON: structure, escapes, number edges,
// literals, and bytes that are not UTF-8.
const char* const kFragments[] = {
    "{", "}", "[", "]", "\"", ":", ",", "\\", "\\u", "\\ud800", "\\udc00", "-", "0",
    "1e999", "-0", ".5", "9007199254740993", "null", "true", "\xc3\xa9", "\xff", "\xed\xa0\x80",
    "\n", " ",
};

const fuzz::Alphabet kJsonAlphabet{kFragments, '[', ']'};

// Runs one line through both parsers the transport runs. Returns whether
// parse_wire_request accepted it; fails the test on any broken contract.
bool check_line(const std::string& line) {
    std::string json_error;
    std::optional<JsonValue> json;
    EXPECT_NO_THROW(json = parse_json(line, &json_error)) << line;
    EXPECT_TRUE(json.has_value() || !json_error.empty()) << line;
    (void)valid_utf8(line);

    std::string error;
    std::optional<std::uint64_t> id;
    std::optional<WireRequest> request;
    EXPECT_NO_THROW(request = parse_wire_request(line, &error, &id)) << line;
    if (!request.has_value()) {
        EXPECT_TRUE(std::any_of(std::begin(kBadRequestCatalogue), std::end(kBadRequestCatalogue),
                                [&](const auto& entry) { return error == entry.second; }))
            << "message outside the catalogue: '" << error << "' for " << line;
        return false;
    }
    EXPECT_TRUE(error.empty()) << line;
    EXPECT_TRUE(request->decide.empty() != request->op.empty()) << line;
    if (request->has_id) {
        EXPECT_EQ(id, request->id) << line;
    }

    // Both reply shapes read back: an outcome object, and an error object
    // whose message echoes the request's own bytes.
    Decision decision;
    decision.outcome = Outcome::Permit;
    decision.latency_us = 1;
    decision.trace_id = 2;
    std::string reply = wire_decision_json(*request, decision);
    auto parsed = parse_json(reply);
    EXPECT_TRUE(parsed.has_value() && parsed->is_object()) << reply;
    if (parsed.has_value() && request->has_id) {
        const JsonValue* echoed = parsed->find("id");
        EXPECT_TRUE(echoed != nullptr && echoed->as_uint() == request->id) << reply;
    }
    decision.outcome = Outcome::Error;
    decision.error = request->decide;
    reply = wire_decision_json(*request, decision);
    parsed = parse_json(reply);
    EXPECT_TRUE(parsed.has_value() && parsed->is_object()) << reply;
    if (parsed.has_value()) {
        // An empty message (a ping's decide) is left out of the reply.
        const JsonValue* message = parsed->find("message");
        EXPECT_EQ(message == nullptr ? std::string() : message->string, request->decide) << reply;
    }
    return true;
}

TEST(Protocol, MutatedRequestLinesNeverBreakTheWireParsers) {
    std::vector<std::string> corpus(std::begin(kWireCorpus), std::end(kWireCorpus));
    const std::string doc = read_whole_file(std::string(AGENP_SOURCE_DIR) + "/docs/PROTOCOL.md");
    for (const Step& step : transcript_steps(doc)) {
        if (step.kind == Step::Kind::Send && step.text.front() != '!') corpus.push_back(step.text);
    }
    ASSERT_GE(corpus.size(), std::size(kWireCorpus) + 10);
    for (const std::string& line : corpus) EXPECT_TRUE(parse_json(line).has_value()) << line;

    // 20 fixed seeds x 1,000 mutants: the same 20,000 lines on every run.
    constexpr std::uint64_t kSeeds = 20;
    constexpr std::size_t kMutantsPerSeed = 1000;
    std::size_t accepted = 0;
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        std::mt19937_64 rng(seed);
        for (std::size_t i = 0; i < kMutantsPerSeed; ++i) {
            const std::string& base = corpus[rng() % corpus.size()];
            if (check_line(fuzz::mutate(base, corpus, kJsonAlphabet, rng))) ++accepted;
            if (::testing::Test::HasFailure()) FAIL() << "seed " << seed << ", mutant " << i;
        }
    }
    // Both sides of the parser are exercised.
    EXPECT_GT(accepted, kSeeds * kMutantsPerSeed / 100);
    EXPECT_LT(accepted, kSeeds * kMutantsPerSeed / 2);

    // The nesting cap holds at the depth the wrapping mutation reaches.
    std::string error;
    EXPECT_FALSE(parse_json(std::string(fuzz::kWrapDepth, '[') + "1" +
                                std::string(fuzz::kWrapDepth, ']'),
                            &error)
                     .has_value());
    EXPECT_EQ(error, "JSON nesting too deep");
}

// --- NDJSON framing fuzz -----------------------------------------------------

// What the NDJSON framing owes a stream: one reply per complete non-empty
// line (a CR before the LF is not part of the line) and, at the first
// line of max_line_bytes or more, the oversize error and a close. An
// unterminated last line shorter than that is dropped at EOF.
struct FramingExpectation {
    std::size_t replies = 0;
    bool oversized = false;
};

FramingExpectation expected_framing(std::string_view stream, std::size_t max_line_bytes) {
    FramingExpectation out;
    while (true) {
        std::size_t nl = stream.find('\n');
        if ((nl == std::string_view::npos ? stream.size() : nl) >= max_line_bytes) {
            out.oversized = true;
            return out;
        }
        if (nl == std::string_view::npos) return out;
        std::string_view line = stream.substr(0, nl);
        if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
        if (!line.empty()) ++out.replies;
        stream.remove_prefix(nl + 1);
    }
}

TEST(Protocol, MutatedStreamsKeepTheNdjsonFraming) {
    const std::string doc = read_whole_file(std::string(AGENP_SOURCE_DIR) + "/docs/PROTOCOL.md");
    auto grammars = fenced_blocks(doc, "asg");
    auto contexts = fenced_blocks(doc, "lp");
    ASSERT_FALSE(grammars.empty() || contexts.empty());
    RouterOptions router_options;
    router_options.replicas = 1;
    router_options.service.threads = 2;
    AmsRouter router(policy_factory(grammars.front(), asp::parse_program(contexts.front())),
                     router_options);
    TransportOptions transport;
    transport.max_line_bytes = 256;
    TcpServer server(router, transport);

    std::vector<std::string> corpus(std::begin(kWireCorpus), std::end(kWireCorpus));
    corpus.push_back("!stats");  // a control line, refused: this server takes none
    const char* const kEnds[] = {"\n", "\r\n", "\r\r\n", "\n\n", ""};
    std::size_t replies = 0;
    std::size_t oversized = 0;
    // 40 fixed seeds, one connection each: the same streams on every run.
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        std::mt19937_64 rng(seed);
        std::string stream;
        for (int i = 0; i < 16; ++i) {
            const std::string& base = corpus[rng() % corpus.size()];
            stream += rng() % 2 == 0 ? fuzz::mutate(base, corpus, kJsonAlphabet, rng) : base;
            stream += kEnds[rng() % std::size(kEnds)];
        }
        if (seed % 4 == 0) stream += std::string(300, 'x') + "\n";  // over max_line_bytes
        FramingExpectation expected = expected_framing(stream, transport.max_line_bytes);

        TcpClient client("127.0.0.1", server.port());
        try {
            for (std::size_t at = 0; at < stream.size();) {  // random split points
                std::size_t piece = 1 + rng() % 64;
                client.send(std::string_view(stream).substr(at, piece));
                at += piece;
            }
            client.shutdown_write();
        } catch (const std::runtime_error&) {
            // An oversized line closed the connection over bytes the
            // server will never read; the replies before are intact.
        }
        std::size_t got = 0;
        std::size_t oversize_errors = 0;
        while (auto reply = client.recv_line()) {
            auto json = parse_json(*reply);
            EXPECT_TRUE(json.has_value() && json->is_object()) << "seed " << seed << ": " << *reply;
            if (reply->find("line exceeds maximum length") != std::string::npos) ++oversize_errors;
            ++got;
        }
        EXPECT_EQ(got, expected.replies + (expected.oversized ? 1 : 0)) << "seed " << seed;
        EXPECT_EQ(oversize_errors, expected.oversized ? 1u : 0u) << "seed " << seed;
        replies += got;
        if (expected.oversized) ++oversized;

        // A fresh connection is served afterwards.
        TcpClient fresh("127.0.0.1", server.port());
        fresh.send_line(R"({"op":"ping"})");
        auto pong = fresh.recv_line();
        EXPECT_TRUE(pong.has_value() && pong->find("\"ok\":true") != std::string::npos)
            << "seed " << seed;
        if (::testing::Test::HasFailure()) FAIL() << "seed " << seed;
    }
    // Both sides of the contract are exercised.
    EXPECT_GT(replies, 200u);
    EXPECT_GT(oversized, 10u);
    server.shutdown();
    EXPECT_EQ(server.stats().active, 0u);
}

}  // namespace
}  // namespace agenp::srv
