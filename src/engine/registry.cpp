#include "engine/registry.hpp"

#include <stdexcept>
#include <utility>

namespace nexuspp::engine {

void EngineRegistry::add(std::string name, Factory factory) {
  for (auto& [existing, f] : factories_) {
    if (existing == name) {
      f = std::move(factory);
      return;
    }
  }
  factories_.emplace_back(std::move(name), std::move(factory));
}

bool EngineRegistry::contains(const std::string& name) const {
  for (const auto& [existing, f] : factories_) {
    if (existing == name) return true;
  }
  return false;
}

std::vector<std::string> EngineRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, f] : factories_) out.push_back(name);
  return out;
}

std::unique_ptr<Engine> EngineRegistry::make(const std::string& name,
                                             const EngineParams& params) const {
  for (const auto& [existing, factory] : factories_) {
    if (existing == name) return factory(params);
  }
  std::string known;
  for (const auto& n : names()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  throw std::out_of_range("EngineRegistry: unknown engine '" + name +
                          "' (registered: " + known + ")");
}

EngineRegistry EngineRegistry::with_builtins() {
  EngineRegistry reg;
  reg.add("nexus++", [](const EngineParams& p) -> std::unique_ptr<Engine> {
    return std::make_unique<NexusEngine>(
        "nexus++", NexusEngine::apply(nexus::NexusConfig{}, p),
        /*banked=*/false, p.timeline);
  });
  reg.add("classic-nexus",
          [](const EngineParams& p) -> std::unique_ptr<Engine> {
            return std::make_unique<NexusEngine>(
                "classic-nexus",
                NexusEngine::apply(nexus::NexusConfig::classic_nexus(), p),
                /*banked=*/false, p.timeline);
          });
  reg.add("nexus-banked",
          [](const EngineParams& p) -> std::unique_ptr<Engine> {
            return std::make_unique<NexusEngine>(
                "nexus-banked", NexusEngine::apply(nexus::NexusConfig{}, p),
                /*banked=*/true, p.timeline);
          });
  reg.add("software-rts",
          [](const EngineParams& p) -> std::unique_ptr<Engine> {
            return std::make_unique<SoftwareRtsEngine>(
                SoftwareRtsEngine::apply(rts::SoftwareRtsConfig{}, p));
          });
  reg.add("exec-threads",
          [](const EngineParams& p) -> std::unique_ptr<Engine> {
            return std::make_unique<ThreadedExecEngine>(
                ThreadedExecEngine::apply(exec::ExecConfig{}, p), p.timeline);
          });
  return reg;
}

const EngineRegistry& EngineRegistry::builtins() {
  static const EngineRegistry instance = with_builtins();
  return instance;
}

}  // namespace nexuspp::engine
