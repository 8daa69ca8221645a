// An ASP program: an ordered collection of normal rules and constraints.
#pragma once

#include <iterator>
#include <string>
#include <vector>

#include "asp/rule.hpp"

namespace agenp::asp {

class Program {
public:
    Program() = default;
    explicit Program(std::vector<Rule> rules) : rules_(std::move(rules)) {}

    void add(Rule rule) { rules_.push_back(std::move(rule)); }
    void add_fact(Atom atom) { rules_.push_back(Rule::fact(std::move(atom))); }
    void append(const Program& other) {
        rules_.insert(rules_.end(), other.rules_.begin(), other.rules_.end());
    }
    // Moves the rules of `other` in; into an empty program it takes
    // `other`'s storage outright.
    void append(Program&& other) {
        if (rules_.empty()) {
            rules_ = std::move(other.rules_);
        } else {
            rules_.insert(rules_.end(), std::make_move_iterator(other.rules_.begin()),
                          std::make_move_iterator(other.rules_.end()));
        }
    }

    [[nodiscard]] const std::vector<Rule>& rules() const { return rules_; }
    [[nodiscard]] std::vector<Rule>& rules() { return rules_; }
    [[nodiscard]] bool empty() const { return rules_.empty(); }
    [[nodiscard]] std::size_t size() const { return rules_.size(); }

    [[nodiscard]] bool is_ground() const;

    [[nodiscard]] std::string to_string() const;

    friend bool operator==(const Program& a, const Program& b) { return a.rules_ == b.rules_; }

private:
    std::vector<Rule> rules_;
};

}  // namespace agenp::asp
