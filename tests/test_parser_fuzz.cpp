// Seeded mutation fuzzing of the text parsers: FaultPlan specs and the
// environment-knob parsers. No external fuzzer: valid inputs are mutated
// by byte flips, token swaps, digit runs and truncation under a fixed
// seed, so every run replays the same few thousand cases. A parser may
// reject an input — FaultPlan::parse with std::invalid_argument, a knob
// with exactly one warning and its fallback — or accept it; an accepted
// FaultPlan must survive serialize() -> parse() unchanged. No other
// exception may escape.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "env_guard.h"
#include "fault/fault_plan.h"
#include "util/env.h"
#include "util/rng.h"

namespace hfc {
namespace {

/// Apply one to three random mutations to `s`. `separator` delimits the
/// tokens a swap exchanges (any two characters when 0); `allow_nul`
/// admits NUL bytes (not for environment values, which are C strings).
std::string mutate(std::string s, Rng& rng, char separator, bool allow_nul) {
  const int rounds = rng.uniform_int(1, 3);
  for (int r = 0; r < rounds; ++r) {
    const int pos =
        s.empty() ? 0 : rng.uniform_int(0, static_cast<int>(s.size()) - 1);
    switch (rng.uniform_int(0, 3)) {
      case 0: {  // byte flip
        if (s.empty()) break;
        char c = static_cast<char>(s[pos] ^ (1 << rng.uniform_int(0, 7)));
        if (c == '\0' && !allow_nul) c = '#';
        s[pos] = c;
        break;
      }
      case 1: {  // token swap
        std::vector<std::string> tokens;
        if (separator == 0) {
          for (const char c : s) tokens.emplace_back(1, c);
        } else {
          std::string cur;
          for (const char c : s) {
            if (c == separator) {
              tokens.push_back(cur);
              cur.clear();
            } else {
              cur += c;
            }
          }
          tokens.push_back(cur);
        }
        if (tokens.size() < 2) break;
        const int last = static_cast<int>(tokens.size()) - 1;
        std::swap(tokens[rng.uniform_int(0, last)],
                  tokens[rng.uniform_int(0, last)]);
        s.clear();
        for (std::size_t t = 0; t < tokens.size(); ++t) {
          if (t > 0 && separator != 0) s += separator;
          s += tokens[t];
        }
        break;
      }
      case 2: {  // digit run
        std::string run(static_cast<std::size_t>(rng.uniform_int(1, 24)),
                        '0');
        for (char& c : run) c = static_cast<char>('0' + rng.uniform_int(0, 9));
        s.insert(s.empty() ? 0 : static_cast<std::size_t>(pos), run);
        break;
      }
      default:  // truncation
        s.resize(s.empty() ? 0 : static_cast<std::size_t>(pos));
        break;
    }
  }
  return s;
}

TEST(FaultParserFuzz, PlanSpecsRoundTripOrReject) {
  const std::vector<std::string> seeds = {
      "crash@500:3;recover@1700:3;partition@800:0/2;heal@2100:0/2;"
      "burst@900+400:0.8;loss:0.05;jitter:2.5;seed:42",
      "crash@0:0;seed:1",
      "burst@10+1e3:1;burst@20+5:0.25",
      "partition@1.5:7/3; heal@99.25:7/3 ;loss:0;jitter:0",
      "recover@12:5;crash@3:5;seed:18446744073709551615",
      "burst@3+5:0.5;crash@3:1;recover@3:1;heal@8:2/1;partition@8:1/2",
  };
  Rng rng(20261018);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int i = 0; i < 3000; ++i) {
    const std::string spec =
        mutate(seeds[static_cast<std::size_t>(i) % seeds.size()], rng, ';',
               /*allow_nul=*/true);
    FaultPlan plan;
    try {
      plan = FaultPlan::parse(spec);
    } catch (const std::invalid_argument&) {
      ++rejected;
      continue;
    }
    ++accepted;
    const std::string text = plan.serialize();
    FaultPlan again;
    ASSERT_NO_THROW(again = FaultPlan::parse(text))
        << "spec '" << spec << "' serialized to '" << text << "'";
    EXPECT_EQ(again, plan) << "spec '" << spec << "' serialized to '" << text
                           << "' and re-serialized to '" << again.serialize()
                           << "'";
  }
  // Both outcomes are exercised.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 100u);
}

/// The documented grammar of parse_u64, written independently: optional
/// spaces and tabs around a non-empty run of decimal digits whose value
/// fits 64 bits.
bool oracle_u64(const std::string& raw, std::uint64_t& out) {
  const std::size_t b = raw.find_first_not_of(" \t");
  if (b == std::string::npos) return false;
  const std::size_t e = raw.find_last_not_of(" \t");
  out = 0;
  for (std::size_t i = b; i <= e; ++i) {
    if (raw[i] < '0' || raw[i] > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(raw[i] - '0');
    if (out > (UINT64_MAX - digit) / 10) return false;
    out = out * 10 + digit;
  }
  return true;
}

TEST(FaultParserFuzz, KnobParsersRejectWithOneWarning) {
  const char* kName = "FUZZ_PARSER_KNOB";
  const std::vector<std::string> seeds = {
      "42", " 7\t", "0", "18446744073709551615", "1", "abc", "2048"};
  // Whitespace strtoull skips but the grammar does not allow, then the
  // mutations.
  std::vector<std::string> inputs = {"\v-5", "\n5", "\r7", "5\n", "\f1"};
  Rng rng(1018);
  for (int i = 0; i < 2000; ++i) {
    inputs.push_back(mutate(seeds[static_cast<std::size_t>(i) % seeds.size()],
                            rng, 0, /*allow_nul=*/false));
  }
  std::size_t rejections = 0;
  testing::internal::CaptureStderr();
  for (const std::string& raw : inputs) {
    SCOPED_TRACE("input '" + raw + "'");

    std::uint64_t want = 0;
    const bool valid = oracle_u64(raw, want);
    std::uint64_t got = 0;
    const char* why = nullptr;
    ASSERT_EQ(parse_u64(raw.c_str(), got, why), valid);
    if (valid) {
      EXPECT_EQ(got, want);
    } else {
      EXPECT_NE(why, nullptr);
    }

    const EnvGuard guard(kName, raw.c_str());
    const auto expect_warnings = [&](bool accepted) {
      EXPECT_EQ(env_warning_count(), accepted ? 0u : 1u);
      if (!accepted) ++rejections;
      reset_env_warnings();
    };
    reset_env_warnings();
    const std::size_t min = 2;
    const bool size_ok = valid && want >= min;
    EXPECT_EQ(env_size_t(kName, 5, min), size_ok ? want : 5u);
    expect_warnings(size_ok);

    const std::size_t choice = env_choice(kName, {"42", "0", "abc"}, 1);
    const bool choice_ok = raw == "42" || raw == "0" || raw == "abc";
    if (choice_ok) EXPECT_EQ(choice, raw == "42" ? 0u : raw == "0" ? 1u : 2u);
    else EXPECT_EQ(choice, 1u);
    expect_warnings(choice_ok);

    const std::size_t b = raw.find_first_not_of(" \t");
    const std::string core =
        b == std::string::npos
            ? ""
            : raw.substr(b, raw.find_last_not_of(" \t") - b + 1);
    const bool is_flag = core == "0" || core == "1";
    EXPECT_EQ(env_flag(kName, true), is_flag ? core == "1" : true);
    expect_warnings(is_flag);
  }
  const std::string warnings = testing::internal::GetCapturedStderr();
  std::size_t printed = 0;
  for (std::size_t at = warnings.find("[hfc] warning:");
       at != std::string::npos; at = warnings.find("[hfc] warning:", at + 1)) {
    ++printed;
  }
  EXPECT_EQ(printed, rejections);
  EXPECT_GT(rejections, 100u);
}

}  // namespace
}  // namespace hfc
