// Context handling: the PIP (Policy Information Point) and the Context
// Repository of Fig 2.
#pragma once

#include <functional>
#include <map>
#include <string>

#include "asp/program.hpp"

namespace agenp::framework {

// Acquires information about external conditions affecting the AMS
// (Section III.A.3). Sources are pluggable producers of context facts; the
// PIP concatenates whatever they currently report.
class PolicyInformationPoint {
public:
    using Source = std::function<asp::Program()>;

    void add_source(std::string name, Source source) {
        sources_[std::move(name)] = std::move(source);
    }
    void remove_source(const std::string& name) { sources_.erase(name); }

    // Snapshot of all external conditions, as one context program. Each
    // source's program is moved in, not copied; the first one's storage is
    // taken outright.
    [[nodiscard]] asp::Program gather() const {
        asp::Program out;
        for (const auto& [name, source] : sources_) {
            (void)name;
            out.append(source());
        }
        return out;
    }

    [[nodiscard]] std::size_t source_count() const { return sources_.size(); }

private:
    std::map<std::string, Source> sources_;
};

// Named context snapshots (operating theatres, mission phases, ...).
class ContextRepository {
public:
    void store(std::string name, asp::Program context) {
        contexts_[std::move(name)] = std::move(context);
    }

    [[nodiscard]] const asp::Program* find(const std::string& name) const {
        auto it = contexts_.find(name);
        return it == contexts_.end() ? nullptr : &it->second;
    }

    [[nodiscard]] std::size_t size() const { return contexts_.size(); }

private:
    std::map<std::string, asp::Program> contexts_;
};

}  // namespace agenp::framework
