// Wire protocol for cross-process serving (docs/PROTOCOL.md is the
// normative spec; this header is its implementation).
//
// Framing is newline-delimited JSON: a client sends one UTF-8 JSON object
// per line, the server answers with one JSON object per line. A request
// either asks for a decision (`{"decide":"do patrol","id":7}`) or names a
// control operation (`{"op":"ping"}`). Decision replies carry the echoed
// `id`, the outcome, and the decision metadata; failures are structured
// error objects (`{"error":"overloaded"}`) rather than closed sockets, so
// a client can always tell shed load from a dead server.
//
// The JSON parser here is deliberately small and dependency-free: full
// JSON values (objects, arrays, strings with escapes, numbers, literals)
// into an ordered DOM, enough for the protocol, its tests, and the
// PROTOCOL.md example round-trip suite. It rejects trailing garbage and
// invalid UTF-8 so a malformed line can never half-parse into a request.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "srv/service.hpp"

namespace agenp::srv {

// Protocol revision. Bumped only on incompatible changes to the framing
// or the meaning of existing fields; adding optional request or response
// fields is compatible and does not bump it (see docs/PROTOCOL.md).
inline constexpr int kProtocolVersion = 1;

// Hard cap a conforming server applies to one request line, terminator
// included. TransportOptions defaults to this; docs/PROTOCOL.md quotes it.
inline constexpr std::size_t kDefaultMaxLineBytes = 64 * 1024;

// --- minimal JSON DOM -------------------------------------------------------

class JsonValue {
public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0;
    std::string string;
    std::vector<JsonValue> array;
    // Insertion-ordered; duplicate keys keep the last occurrence.
    std::vector<std::pair<std::string, JsonValue>> object;

    // Object member by key, or nullptr (also nullptr on non-objects).
    [[nodiscard]] const JsonValue* find(std::string_view key) const;

    [[nodiscard]] bool is_object() const { return type == Type::Object; }
    [[nodiscard]] bool is_string() const { return type == Type::String; }
    // Number representable as a non-negative integer (protocol ids,
    // timeouts and counters are all uint64).
    [[nodiscard]] bool is_uint() const;
    [[nodiscard]] std::uint64_t as_uint() const { return static_cast<std::uint64_t>(number); }
};

// Parses exactly one JSON value spanning the whole input (leading/trailing
// whitespace allowed, anything else is an error). On failure returns
// nullopt and, when `error` is non-null, a one-line reason.
std::optional<JsonValue> parse_json(std::string_view text, std::string* error = nullptr);

// True when `text` is well-formed UTF-8 (rejects overlong encodings,
// surrogate code points, and values beyond U+10FFFF).
bool valid_utf8(std::string_view text);

// --- request / response objects --------------------------------------------

struct WireRequest {
    std::string decide;       // token string to decide; empty for ops
    std::string op;           // "ping", or empty for decisions
    bool has_id = false;      // `id` was present and is echoed back
    std::uint64_t id = 0;
    std::uint64_t timeout_ms = 0;  // 0 = no deadline
};

// Parses one request line (already known to be valid UTF-8). On failure
// returns nullopt and fills `error` with the bad_request message; when the
// line carried a readable `id` it is reported through `id_out` so the
// error reply can still correlate.
std::optional<WireRequest> parse_wire_request(std::string_view line, std::string* error,
                                              std::optional<std::uint64_t>* id_out = nullptr);

// Renders the reply to a decision request: an outcome object for
// Permit/Deny, a structured error object for Overloaded/Expired/Error.
std::string wire_decision_json(const WireRequest& request, const Decision& decision);

// Renders a structured error reply (`code` is one of the stable error
// codes from docs/PROTOCOL.md: bad_request, overloaded, expired, internal).
std::string wire_error_json(std::optional<std::uint64_t> id, std::string_view code,
                            std::string_view message);

// Renders the `{"op":"ping"}` reply.
std::string wire_ping_json(std::optional<std::uint64_t> id, std::size_t replicas,
                           std::uint64_t model_version);

}  // namespace agenp::srv
