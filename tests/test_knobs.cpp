// The central environment-knob registry (util/env.h): structural checks
// on the table itself, and the inventory test that greps the source tree
// for `HFC_[A-Z0-9_]+` reads and fails when one is not registered — the
// mechanism that keeps the registry the single source of truth.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "util/env.h"

#ifndef HFC_SOURCE_DIR
#error "tests/CMakeLists.txt must define HFC_SOURCE_DIR"
#endif

namespace hfc {
namespace {

namespace fs = std::filesystem;

/// Macros and build definitions that legitimately match the HFC_* pattern
/// but are not environment knobs.
const std::set<std::string>& non_knob_identifiers() {
  static const std::set<std::string> allow = {
      "HFC_TRACE_SPAN",      // tracing macro (obs/trace.h)
      "HFC_OBS_CONCAT",      // helper macro behind HFC_TRACE_SPAN
      "HFC_OBS_CONCAT_IMPL",
      "HFC_OBS_NO_TRACING",  // compile-time tracing kill switch
      "HFC_BENCH_SOURCES",   // CMake variables, mentioned in comments
      "HFC_EXAMPLE_SOURCES",
      "HFC_TEST_SOURCES",
      "HFC_SOURCE_DIR",      // this test's own build definition
  };
  return allow;
}

/// The text of every .h/.cpp file under `dirs` of the source tree, keyed
/// by path relative to the tree's root.
std::map<std::string, std::string> read_tree(
    std::initializer_list<const char*> dirs) {
  std::map<std::string, std::string> files;
  const fs::path root(HFC_SOURCE_DIR);
  for (const char* dir : dirs) {
    for (const auto& entry : fs::recursive_directory_iterator(root / dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".h" && ext != ".cpp") continue;
      std::ifstream in(entry.path());
      std::stringstream buf;
      buf << in.rdbuf();
      files.emplace(entry.path().lexically_relative(root).string(), buf.str());
    }
  }
  return files;
}

/// Every HFC_* identifier in `files`, mapped to one file that mentions it.
std::map<std::string, std::string> scan_identifiers(
    const std::map<std::string, std::string>& files) {
  std::map<std::string, std::string> found;
  for (const auto& [path, text] : files) {
    for (std::size_t pos = text.find("HFC_"); pos != std::string::npos;
         pos = text.find("HFC_", pos + 1)) {
      // Must not be the tail of a longer identifier.
      if (pos > 0 &&
          (std::isalnum(static_cast<unsigned char>(text[pos - 1])) != 0 ||
           text[pos - 1] == '_')) {
        continue;
      }
      std::size_t end = pos + 4;
      while (end < text.size() &&
             (std::isupper(static_cast<unsigned char>(text[end])) != 0 ||
              std::isdigit(static_cast<unsigned char>(text[end])) != 0 ||
              text[end] == '_')) {
        ++end;
      }
      if (end == pos + 4) continue;  // bare "HFC_" prefix of other text
      found.emplace(text.substr(pos, end - pos), path);
    }
  }
  return found;
}

/// Every HFC_* identifier in src/, bench/ and examples/.
std::map<std::string, std::string> scan_tree() {
  return scan_identifiers(read_tree({"src", "bench", "examples"}));
}

TEST(KnobRegistry, SortedUniqueAndWellFormed) {
  const std::vector<EnvKnob>& knobs = registered_knobs();
  ASSERT_FALSE(knobs.empty());
  for (std::size_t i = 0; i < knobs.size(); ++i) {
    EXPECT_TRUE(std::string(knobs[i].name).starts_with("HFC_")) << knobs[i].name;
    EXPECT_NE(std::string(knobs[i].fallback), "") << knobs[i].name;
    EXPECT_NE(std::string(knobs[i].description), "") << knobs[i].name;
    const std::string scope = knobs[i].scope;
    EXPECT_TRUE(scope == "core" || scope == "bench") << knobs[i].name;
    if (i > 0) {
      EXPECT_LT(std::string(knobs[i - 1].name), std::string(knobs[i].name));
    }
  }
}

TEST(KnobRegistry, FindKnob) {
  const EnvKnob* threads = find_knob("HFC_THREADS");
  ASSERT_NE(threads, nullptr);
  EXPECT_EQ(std::string(threads->name), "HFC_THREADS");
  EXPECT_EQ(find_knob("HFC_NO_SUCH_KNOB"), nullptr);
  EXPECT_EQ(find_knob(""), nullptr);
}

TEST(KnobRegistry, ServingKnobsRegistered) {
  for (const char* name : {"HFC_SERVE_N", "HFC_SERVE_WAVES",
                           "HFC_SERVE_WAVE_REQUESTS", "HFC_SERVE_HOT"}) {
    EXPECT_NE(find_knob(name), nullptr) << name;
  }
}

// The library reads only its deployment and observability knobs; every
// tuning value is a config field. Benches read their own sweep knobs and
// set those fields, so no bench-scope name appears in src/ outside the
// registry itself.
TEST(KnobRegistry, CoreKnobsAreDeploymentOnly) {
  std::set<std::string> core;
  for (const EnvKnob& knob : registered_knobs()) {
    if (std::string(knob.scope) == "core") core.insert(knob.name);
  }
  EXPECT_EQ(core, (std::set<std::string>{"HFC_THREADS", "HFC_TRACE",
                                         "HFC_TRACE_BUF", "HFC_TRACE_FILE"}));

  std::map<std::string, std::string> src = read_tree({"src"});
  ASSERT_EQ(src.erase("src/util/env.cpp"), 1u);
  for (const std::string& name : core) {
    // A read passes the name as a string literal.
    const std::string literal = "\"" + name + "\"";
    const bool read = std::any_of(src.begin(), src.end(), [&](const auto& f) {
      return f.second.find(literal) != std::string::npos;
    });
    EXPECT_TRUE(read) << name << " is core but never read under src/";
  }
  const std::map<std::string, std::string> used = scan_identifiers(src);
  for (const EnvKnob& knob : registered_knobs()) {
    if (std::string(knob.scope) != "bench") continue;
    const auto it = used.find(knob.name);
    EXPECT_TRUE(it == used.end())
        << knob.name << " is bench-scope but appears in " << it->second;
  }
}

TEST(KnobRegistry, TraceBufDefaultMatchesTheRing) {
  const EnvKnob* knob = find_knob("HFC_TRACE_BUF");
  ASSERT_NE(knob, nullptr);
  ::unsetenv("HFC_TRACE_BUF");
  EXPECT_EQ(std::string(knob->fallback),
            std::to_string(obs::trace_capacity_from_env()));
}

// Negative paths of the typed parsers: a bad value warns exactly once
// per knob and falls back to the default, never to a silent reading.
class KnobParsers : public ::testing::Test {
 protected:
  void SetUp() override { clear(); }
  void TearDown() override { clear(); }
  static void clear() {
    for (const char* name : {"HFC_STREAM_MODE", "HFC_TRACE", "HFC_TRACE_BUF"}) {
      ::unsetenv(name);
    }
    reset_env_warnings();
  }
};

TEST_F(KnobParsers, ChoiceMatchesExactly) {
  EXPECT_EQ(env_choice("HFC_STREAM_MODE", {"locating", "clique"}, 0), 0u);
  ::setenv("HFC_STREAM_MODE", "clique", 1);
  EXPECT_EQ(env_choice("HFC_STREAM_MODE", {"locating", "clique"}, 0), 1u);
  ::setenv("HFC_STREAM_MODE", "locating", 1);
  EXPECT_EQ(env_choice("HFC_STREAM_MODE", {"locating", "clique"}, 1), 0u);
  EXPECT_EQ(env_warning_count(), 0u);
}

TEST_F(KnobParsers, ChoiceRejectsAnythingElseOnce) {
  for (const char* bad : {"Clique", "clique ", "", "2"}) {
    reset_env_warnings();
    ::setenv("HFC_STREAM_MODE", bad, 1);
    EXPECT_EQ(env_choice("HFC_STREAM_MODE", {"locating", "clique"}, 0), 0u)
        << bad;
    EXPECT_EQ(env_choice("HFC_STREAM_MODE", {"locating", "clique"}, 0), 0u)
        << bad;
    EXPECT_EQ(env_warning_count(), 1u) << bad;
  }
}

TEST_F(KnobParsers, FlagAcceptsZeroAndOne) {
  EXPECT_FALSE(env_flag("HFC_TRACE", false));
  EXPECT_TRUE(env_flag("HFC_TRACE", true));
  ::setenv("HFC_TRACE", "1", 1);
  EXPECT_TRUE(env_flag("HFC_TRACE", false));
  ::setenv("HFC_TRACE", " 0 ", 1);
  EXPECT_FALSE(env_flag("HFC_TRACE", true));
  EXPECT_EQ(env_warning_count(), 0u);
}

TEST_F(KnobParsers, FlagRejectsAnythingElseOnce) {
  for (const char* bad : {"true", "2", "on", ""}) {
    reset_env_warnings();
    ::setenv("HFC_TRACE", bad, 1);
    EXPECT_FALSE(env_flag("HFC_TRACE", false)) << bad;
    EXPECT_FALSE(env_flag("HFC_TRACE", false)) << bad;
    EXPECT_EQ(env_warning_count(), 1u) << bad;
  }
}

TEST_F(KnobParsers, TraceBufferRejectsNegativeGarbageAndZero) {
  ::setenv("HFC_TRACE_BUF", "4096", 1);
  EXPECT_EQ(obs::trace_capacity_from_env(), 4096u);
  EXPECT_EQ(env_warning_count(), 0u);
  // "-1" must not wrap to a SIZE_MAX-event ring.
  for (const char* bad : {"-1", "abc", "0"}) {
    reset_env_warnings();
    ::setenv("HFC_TRACE_BUF", bad, 1);
    EXPECT_EQ(obs::trace_capacity_from_env(), 131072u) << bad;
    EXPECT_EQ(obs::trace_capacity_from_env(), 131072u) << bad;
    EXPECT_EQ(env_warning_count(), 1u) << bad;
  }
}

// The inventory gate: every HFC_* identifier used anywhere in src/,
// bench/ or examples/ must either be a registered knob or an allowlisted
// non-knob macro. A new knob read without a registry entry fails here.
TEST(KnobInventory, EveryUsedKnobIsRegistered) {
  const std::map<std::string, std::string> used = scan_tree();
  ASSERT_FALSE(used.empty());
  for (const auto& [name, file] : used) {
    if (non_knob_identifiers().count(name) != 0) continue;
    EXPECT_NE(find_knob(name), nullptr)
        << name << " (used in " << file
        << ") is not in the util/env.h knob registry";
  }
}

// And the registry carries no dead entries: every registered knob is
// actually read somewhere in the scanned tree.
TEST(KnobInventory, EveryRegisteredKnobIsUsed) {
  const std::map<std::string, std::string> used = scan_tree();
  for (const EnvKnob& knob : registered_knobs()) {
    EXPECT_NE(used.find(knob.name), used.end())
        << knob.name << " is registered but never read in src/bench/examples";
  }
}

}  // namespace
}  // namespace hfc
