#include "obs/build.hpp"

#include "obs/metrics.hpp"

// Injected per-source by CMake (git describe at configure time); default
// so the file still compiles standalone.
#ifndef AGENP_GIT_SHA
#define AGENP_GIT_SHA "unknown"
#endif
#ifndef AGENP_BUILD_TYPE
#define AGENP_BUILD_TYPE "unknown"
#endif

namespace agenp::obs {

std::string build_info_json(
    const std::vector<std::pair<std::string, std::string>>& extra) {
    std::string out = "{\"git_sha\":\"" + json_escape(AGENP_GIT_SHA) + "\"";
    out += ",\"compiler\":\"" + json_escape(__VERSION__) + "\"";
    out += ",\"build_type\":\"" + json_escape(AGENP_BUILD_TYPE) + "\"";
    out += ",\"cxx_standard\":" + std::to_string(__cplusplus);

    out += ",\"features\":[";
    bool first = true;
    [[maybe_unused]] auto feature = [&](const char* name) {
        if (!first) out += ',';
        first = false;
        out += '"';
        out += name;
        out += '"';
    };
#if defined(__SANITIZE_ADDRESS__)
    feature("asan");
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
    feature("asan");
#endif
#endif
#if defined(__SANITIZE_THREAD__)
    feature("tsan");
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
    feature("tsan");
#endif
#endif
#if !defined(NDEBUG)
    feature("assertions");
#endif
    out += ']';

    for (const auto& [key, value] : extra) {
        out += ",\"" + json_escape(key) + "\":" + value;
    }
    out += '}';
    return out;
}

}  // namespace agenp::obs
