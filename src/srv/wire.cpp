#include "srv/wire.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>

#include "obs/metrics.hpp"

namespace agenp::srv {

namespace {

// Recursive-descent JSON parser over a string_view cursor.
class JsonParser {
public:
    explicit JsonParser(std::string_view text) : text_(text) {}

    std::optional<JsonValue> parse(std::string* error) {
        JsonValue value;
        skip_ws();
        if (!parse_value(value)) {
            if (error != nullptr) *error = error_;
            return std::nullopt;
        }
        skip_ws();
        if (pos_ != text_.size()) {
            if (error != nullptr) *error = "trailing characters after JSON value";
            return std::nullopt;
        }
        return value;
    }

private:
    bool fail(const char* message) {
        error_ = message;
        return false;
    }

    void skip_ws() {
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
            ++pos_;
        }
    }

    [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
    [[nodiscard]] char peek() const { return text_[pos_]; }

    bool consume_literal(std::string_view literal) {
        if (text_.substr(pos_, literal.size()) != literal) return fail("invalid literal");
        pos_ += literal.size();
        return true;
    }

    bool parse_value(JsonValue& out) {
        if (depth_ > kMaxDepth) return fail("JSON nesting too deep");
        if (eof()) return fail("unexpected end of input");
        switch (peek()) {
            case '{': return parse_object(out);
            case '[': return parse_array(out);
            case '"': out.type = JsonValue::Type::String; return parse_string(out.string);
            case 't':
                out.type = JsonValue::Type::Bool;
                out.boolean = true;
                return consume_literal("true");
            case 'f':
                out.type = JsonValue::Type::Bool;
                out.boolean = false;
                return consume_literal("false");
            case 'n': out.type = JsonValue::Type::Null; return consume_literal("null");
            default: return parse_number(out);
        }
    }

    bool parse_object(JsonValue& out) {
        out.type = JsonValue::Type::Object;
        ++depth_;
        ++pos_;  // '{'
        skip_ws();
        if (!eof() && peek() == '}') {
            ++pos_;
            --depth_;
            return true;
        }
        while (true) {
            skip_ws();
            if (eof() || peek() != '"') return fail("expected object key");
            std::string key;
            if (!parse_string(key)) return false;
            skip_ws();
            if (eof() || peek() != ':') return fail("expected ':' after object key");
            ++pos_;
            skip_ws();
            JsonValue value;
            if (!parse_value(value)) return false;
            // Last duplicate wins, matching common JSON library behaviour.
            bool replaced = false;
            for (auto& [k, v] : out.object) {
                if (k == key) {
                    v = std::move(value);
                    replaced = true;
                    break;
                }
            }
            if (!replaced) out.object.emplace_back(std::move(key), std::move(value));
            skip_ws();
            if (eof()) return fail("unterminated object");
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                --depth_;
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    bool parse_array(JsonValue& out) {
        out.type = JsonValue::Type::Array;
        ++depth_;
        ++pos_;  // '['
        skip_ws();
        if (!eof() && peek() == ']') {
            ++pos_;
            --depth_;
            return true;
        }
        while (true) {
            skip_ws();
            JsonValue value;
            if (!parse_value(value)) return false;
            out.array.push_back(std::move(value));
            skip_ws();
            if (eof()) return fail("unterminated array");
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                --depth_;
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }

    bool parse_hex4(std::uint32_t& out) {
        if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
        out = 0;
        for (int i = 0; i < 4; ++i) {
            char c = text_[pos_++];
            out <<= 4;
            if (c >= '0' && c <= '9') {
                out |= static_cast<std::uint32_t>(c - '0');
            } else if (c >= 'a' && c <= 'f') {
                out |= static_cast<std::uint32_t>(c - 'a' + 10);
            } else if (c >= 'A' && c <= 'F') {
                out |= static_cast<std::uint32_t>(c - 'A' + 10);
            } else {
                return fail("invalid \\u escape");
            }
        }
        return true;
    }

    static void append_utf8(std::string& out, std::uint32_t cp) {
        if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else if (cp < 0x10000) {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else {
            out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        }
    }

    bool parse_string(std::string& out) {
        ++pos_;  // opening quote
        out.clear();
        while (true) {
            if (eof()) return fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"') return true;
            if (static_cast<unsigned char>(c) < 0x20) return fail("raw control character in string");
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (eof()) return fail("unterminated escape");
            char esc = text_[pos_++];
            switch (esc) {
                case '"': out.push_back('"'); break;
                case '\\': out.push_back('\\'); break;
                case '/': out.push_back('/'); break;
                case 'b': out.push_back('\b'); break;
                case 'f': out.push_back('\f'); break;
                case 'n': out.push_back('\n'); break;
                case 'r': out.push_back('\r'); break;
                case 't': out.push_back('\t'); break;
                case 'u': {
                    std::uint32_t cp = 0;
                    if (!parse_hex4(cp)) return false;
                    if (cp >= 0xD800 && cp <= 0xDBFF) {
                        // High surrogate: must pair with a \uDC00..\uDFFF.
                        if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                            text_[pos_ + 1] != 'u') {
                            return fail("unpaired surrogate in \\u escape");
                        }
                        pos_ += 2;
                        std::uint32_t low = 0;
                        if (!parse_hex4(low)) return false;
                        if (low < 0xDC00 || low > 0xDFFF) {
                            return fail("unpaired surrogate in \\u escape");
                        }
                        cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
                        return fail("unpaired surrogate in \\u escape");
                    }
                    append_utf8(out, cp);
                    break;
                }
                default: return fail("invalid escape character");
            }
        }
    }

    bool parse_number(JsonValue& out) {
        std::size_t start = pos_;
        if (!eof() && peek() == '-') ++pos_;
        if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
            return fail("invalid number");
        }
        while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
        if (!eof() && peek() == '.') {
            ++pos_;
            if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
                return fail("invalid number");
            }
            while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
        }
        if (!eof() && (peek() == 'e' || peek() == 'E')) {
            ++pos_;
            if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
            if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
                return fail("invalid number");
            }
            while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
        }
        out.type = JsonValue::Type::Number;
        out.number = std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(), nullptr);
        return true;
    }

    static constexpr int kMaxDepth = 64;

    std::string_view text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
    std::string error_;
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
    if (type != Type::Object) return nullptr;
    for (const auto& [k, v] : object) {
        if (k == key) return &v;
    }
    return nullptr;
}

bool JsonValue::is_uint() const {
    return type == Type::Number && number >= 0 && std::floor(number) == number &&
           number <= 9.007199254740992e15;  // 2^53: exactly representable
}

std::optional<JsonValue> parse_json(std::string_view text, std::string* error) {
    return JsonParser(text).parse(error);
}

bool valid_utf8(std::string_view text) {
    std::size_t i = 0;
    while (i < text.size()) {
        auto byte = static_cast<unsigned char>(text[i]);
        std::size_t len;
        std::uint32_t cp;
        if (byte < 0x80) {
            ++i;
            continue;
        } else if ((byte & 0xE0) == 0xC0) {
            len = 2;
            cp = byte & 0x1Fu;
        } else if ((byte & 0xF0) == 0xE0) {
            len = 3;
            cp = byte & 0x0Fu;
        } else if ((byte & 0xF8) == 0xF0) {
            len = 4;
            cp = byte & 0x07u;
        } else {
            return false;  // continuation or invalid lead byte
        }
        if (i + len > text.size()) return false;
        for (std::size_t k = 1; k < len; ++k) {
            auto cont = static_cast<unsigned char>(text[i + k]);
            if ((cont & 0xC0) != 0x80) return false;
            cp = (cp << 6) | (cont & 0x3Fu);
        }
        // Overlong encodings, surrogates, and out-of-range code points.
        static constexpr std::uint32_t kMinForLen[5] = {0, 0, 0x80, 0x800, 0x10000};
        if (cp < kMinForLen[len]) return false;
        if (cp >= 0xD800 && cp <= 0xDFFF) return false;
        if (cp > 0x10FFFF) return false;
        i += len;
    }
    return true;
}

std::optional<WireRequest> parse_wire_request(std::string_view line, std::string* error,
                                              std::optional<std::uint64_t>* id_out) {
    if (id_out != nullptr) id_out->reset();
    std::string parse_error;
    auto value = parse_json(line, &parse_error);
    if (!value) {
        *error = "line is not a JSON object";
        return std::nullopt;
    }
    if (!value->is_object()) {
        *error = "line is not a JSON object";
        return std::nullopt;
    }

    WireRequest request;
    if (const JsonValue* id = value->find("id")) {
        if (!id->is_uint()) {
            *error = "field 'id' must be a non-negative integer";
            return std::nullopt;
        }
        request.has_id = true;
        request.id = id->as_uint();
        if (id_out != nullptr) *id_out = request.id;
    }
    const JsonValue* decide = value->find("decide");
    const JsonValue* op = value->find("op");
    if (decide != nullptr && op != nullptr) {
        *error = "request cannot carry both 'decide' and 'op'";
        return std::nullopt;
    }
    if (decide != nullptr) {
        if (!decide->is_string()) {
            *error = "field 'decide' must be a string";
            return std::nullopt;
        }
        if (decide->string.empty()) {
            *error = "field 'decide' must not be empty";
            return std::nullopt;
        }
        request.decide = decide->string;
    } else if (op != nullptr) {
        if (!op->is_string() || op->string != "ping") {
            *error = "unknown op (supported: ping)";
            return std::nullopt;
        }
        request.op = op->string;
    } else {
        *error = "request needs a 'decide' or 'op' field";
        return std::nullopt;
    }
    if (const JsonValue* timeout = value->find("timeout_ms")) {
        if (!timeout->is_uint()) {
            *error = "field 'timeout_ms' must be a non-negative integer";
            return std::nullopt;
        }
        request.timeout_ms = timeout->as_uint();
    }
    return request;
}

namespace {

void append_id(std::string& out, bool has_id, std::uint64_t id) {
    if (has_id) out += "\"id\":" + std::to_string(id) + ",";
}

}  // namespace

std::string wire_decision_json(const WireRequest& request, const Decision& decision) {
    auto id = request.has_id ? std::optional<std::uint64_t>(request.id) : std::nullopt;
    switch (decision.outcome) {
        case Outcome::Overloaded: return wire_error_json(id, "overloaded", "request queue is full");
        case Outcome::Expired:
            return wire_error_json(id, "expired", "deadline passed before a worker was free");
        case Outcome::Error: return wire_error_json(id, "internal", decision.error);
        case Outcome::Permit:
        case Outcome::Deny: break;
    }
    std::string out = "{";
    append_id(out, request.has_id, request.id);
    out += "\"outcome\":";
    out += decision.outcome == Outcome::Permit ? "\"permit\"" : "\"deny\"";
    out += ",\"cache_hit\":";
    out += decision.cache_hit ? "true" : "false";
    out += ",\"model_version\":" + std::to_string(decision.model_version);
    out += ",\"latency_us\":" + std::to_string(decision.latency_us);
    out += ",\"trace_id\":" + std::to_string(decision.trace_id);
    out += "}";
    return out;
}

std::string wire_error_json(std::optional<std::uint64_t> id, std::string_view code,
                            std::string_view message) {
    std::string out = "{";
    append_id(out, id.has_value(), id.value_or(0));
    out += "\"error\":\"";
    out += code;
    out += "\"";
    if (!message.empty()) {
        out += ",\"message\":\"" + obs::json_escape(message) + "\"";
    }
    out += "}";
    return out;
}

std::string wire_ping_json(std::optional<std::uint64_t> id, std::size_t replicas,
                           std::uint64_t model_version) {
    std::string out = "{";
    append_id(out, id.has_value(), id.value_or(0));
    out += "\"ok\":true,\"proto\":" + std::to_string(kProtocolVersion);
    out += ",\"replicas\":" + std::to_string(replicas);
    out += ",\"model_version\":" + std::to_string(model_version);
    out += "}";
    return out;
}

}  // namespace agenp::srv
