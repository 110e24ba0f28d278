// Test helper: builds a Workload from one phase list per processor,
// flattened into the constructor's phases-plus-offsets form.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "workload/workload.hpp"

namespace dlb {

inline Workload flat_workload(std::uint32_t processors, std::uint32_t horizon,
                              const std::vector<std::vector<Phase>>& lists,
                              std::string name = "test") {
  std::vector<Phase> phases;
  std::vector<std::uint32_t> offsets{0};
  for (const std::vector<Phase>& list : lists) {
    phases.insert(phases.end(), list.begin(), list.end());
    offsets.push_back(static_cast<std::uint32_t>(phases.size()));
  }
  return Workload(processors, horizon, std::move(phases), std::move(offsets),
                  std::move(name));
}

}  // namespace dlb
