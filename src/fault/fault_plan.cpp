#include "fault/fault_plan.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstdint>
#include <deque>
#include <limits>
#include <sstream>
#include <tuple>
#include <utility>

#include "overlay/hfc_topology.h"
#include "util/env.h"
#include "util/require.h"
#include "util/rng.h"

namespace hfc {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kRecover:
      return "recover";
    case FaultKind::kPartition:
      return "partition";
    case FaultKind::kHeal:
      return "heal";
    case FaultKind::kBurstStart:
      return "burst_start";
    case FaultKind::kBurstEnd:
      return "burst_end";
  }
  return "unknown";
}

FaultPlan::FaultPlan(std::vector<FaultEvent> events, double base_loss,
                     double jitter_ms, std::uint64_t seed)
    : events_(std::move(events)),
      base_loss_(base_loss),
      jitter_ms_(jitter_ms),
      seed_(seed) {
  require(base_loss_ >= 0.0 && base_loss_ < 1.0,
          "FaultPlan: base_loss outside [0,1)");
  require(jitter_ms_ >= 0.0, "FaultPlan: negative jitter");
  for (const FaultEvent& e : events_) {
    require(e.time_ms >= 0.0, "FaultPlan: negative event time");
    switch (e.kind) {
      case FaultKind::kCrash:
      case FaultKind::kRecover:
        require(e.node.valid(), "FaultPlan: crash/recover without a node");
        break;
      case FaultKind::kPartition:
      case FaultKind::kHeal:
        require(e.a.valid() && e.b.valid() && e.a != e.b,
                "FaultPlan: partition needs two distinct clusters");
        break;
      case FaultKind::kBurstStart:
        require(e.loss > 0.0 && e.loss <= 1.0,
                "FaultPlan: burst loss outside (0,1]");
        break;
      case FaultKind::kBurstEnd:
        break;
    }
  }
  std::sort(events_.begin(), events_.end(),
            [](const FaultEvent& x, const FaultEvent& y) {
              return std::tie(x.time_ms, x.kind, x.node, x.a, x.b, x.loss) <
                     std::tie(y.time_ms, y.kind, y.node, y.a, y.b, y.loss);
            });
}

double FaultPlan::last_event_ms() const {
  return events_.empty() ? 0.0 : events_.back().time_ms;
}

std::uint64_t FaultPlan::default_seed() {
  return env_u64("HFC_FAULT_SEED", 1);
}

FaultPlan FaultPlan::from_env() {
  const char* spec = std::getenv("HFC_FAULT_PLAN");
  if (spec == nullptr || *spec == '\0') return FaultPlan();
  return parse(spec);
}

FaultPlan FaultPlan::random(const FaultPlanParams& params,
                            const HfcTopology& topo, std::uint64_t seed) {
  require(params.horizon_ms > 0.0, "FaultPlan::random: empty horizon");
  require(params.heal_fraction > 0.0 && params.heal_fraction <= 1.0,
          "FaultPlan::random: heal_fraction outside (0,1]");
  require(params.border_bias >= 0.0 && params.border_bias <= 1.0,
          "FaultPlan::random: border_bias outside [0,1]");
  const double heal_by = params.horizon_ms * params.heal_fraction;
  std::vector<FaultEvent> events;
  Rng rng(seed);

  // Crash/recover pairs. Victims avoid repeats while enough distinct nodes
  // exist, and are biased toward border proxies — the role whose failure
  // actually degrades inter-cluster routing.
  Rng crash_rng = rng.fork(1);
  const std::vector<NodeId>& borders = topo.all_borders();
  std::vector<NodeId> used;
  for (std::size_t i = 0; i < params.crashes; ++i) {
    NodeId victim;
    for (int attempt = 0; attempt < 16; ++attempt) {
      if (!borders.empty() && crash_rng.chance(params.border_bias)) {
        victim = crash_rng.pick(borders);
      } else {
        victim = NodeId(static_cast<std::int32_t>(
            crash_rng.pick_index(topo.node_count())));
      }
      if (std::find(used.begin(), used.end(), victim) == used.end()) break;
    }
    used.push_back(victim);
    const double down_at = crash_rng.uniform_real(0.05, 0.55) * heal_by;
    double downtime = crash_rng.exponential(params.mean_downtime_ms);
    // Floor tiny draws at 1 ms, then clamp to the pre-heal window — in that
    // order, so the floor can never push the recovery past heal_by (the
    // fault-free reconvergence tail the chaos invariants rely on). down_at
    // <= 0.55 * heal_by keeps the clamped span strictly positive.
    downtime = std::min(std::max(downtime, 1.0), heal_by - down_at);
    FaultEvent crash;
    crash.time_ms = down_at;
    crash.kind = FaultKind::kCrash;
    crash.node = victim;
    events.push_back(crash);
    FaultEvent recover = crash;
    recover.time_ms = down_at + downtime;
    recover.kind = FaultKind::kRecover;
    events.push_back(recover);
  }

  // Inter-cluster partitions over the live cluster pairs.
  Rng part_rng = rng.fork(2);
  std::vector<ClusterId> live;
  for (std::size_t c = 0; c < topo.cluster_count(); ++c) {
    const ClusterId id(static_cast<std::int32_t>(c));
    if (topo.live(id)) live.push_back(id);
  }
  if (live.size() >= 2) {
    for (std::size_t i = 0; i < params.partitions; ++i) {
      const ClusterId a = part_rng.pick(live);
      ClusterId b = part_rng.pick(live);
      for (int attempt = 0; attempt < 16 && b == a; ++attempt) {
        b = part_rng.pick(live);
      }
      if (b == a) continue;  // one-cluster corner: nothing to partition
      const double cut_at = part_rng.uniform_real(0.05, 0.55) * heal_by;
      double span = part_rng.exponential(params.mean_partition_ms);
      span = std::min(std::max(span, 1.0), heal_by - cut_at);
      FaultEvent cut;
      cut.time_ms = cut_at;
      cut.kind = FaultKind::kPartition;
      cut.a = a;
      cut.b = b;
      events.push_back(cut);
      FaultEvent heal = cut;
      heal.time_ms = cut_at + span;
      heal.kind = FaultKind::kHeal;
      events.push_back(heal);
    }
  }

  // Correlated-loss windows: each burst lives in its own slot of the
  // pre-heal horizon, so windows from `random` never overlap — a plan's
  // loss level at any instant is that of the single open window.
  // (serialize() and the injector still handle overlapping windows, which
  // hand-written specs may construct.)
  Rng burst_rng = rng.fork(3);
  if (params.bursts > 0) {
    const double first_open = 0.05 * heal_by;
    const double slot = (heal_by - first_open) /
                        static_cast<double>(params.bursts);
    for (std::size_t i = 0; i < params.bursts; ++i) {
      const double slot_begin = first_open + static_cast<double>(i) * slot;
      const double open_at =
          slot_begin + burst_rng.uniform_real(0.0, 0.5) * slot;
      double span = burst_rng.exponential(params.mean_burst_ms);
      // Floor then clamp to the slot (open_at sits in the slot's first
      // half, so the clamp keeps span strictly positive and every window
      // closed by heal_by).
      span = std::min(std::max(span, 1.0), slot_begin + slot - open_at);
      FaultEvent open;
      open.time_ms = open_at;
      open.kind = FaultKind::kBurstStart;
      open.loss = params.burst_loss;
      events.push_back(open);
      FaultEvent close;
      close.time_ms = open_at + span;
      close.kind = FaultKind::kBurstEnd;
      events.push_back(close);
    }
  }

  return FaultPlan(std::move(events), params.base_loss, params.jitter_ms,
                   seed);
}

namespace {

/// Format a double (times and loss probabilities alike) with enough
/// significant digits (max_digits10 = 17) that parse() recovers the exact
/// value: serialize/parse is a lossless round-trip, which the
/// plan-equality checks of the chaos suite rely on. Round values still
/// print compactly ("500", not "500.000000").
std::string fmt_num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

double parse_double(const std::string& token, const std::string& context) {
  std::size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(token, &pos);
  } catch (const std::exception&) {
    throw std::invalid_argument("FaultPlan::parse: bad number '" + token +
                                "' in '" + context + "'");
  }
  require(pos == token.size(), "FaultPlan::parse: trailing garbage in '" +
                                   context + "'");
  return v;
}

/// A time, span, jitter or loss: stod accepts "inf" and "nan", which no
/// schedule can use.
double parse_finite(const std::string& token, const std::string& context) {
  const double v = parse_double(token, context);
  require(std::isfinite(v), "FaultPlan::parse: non-finite number '" + token +
                                "' in '" + context + "'");
  return v;
}

/// A node or cluster id: checked against the int32 range before the
/// cast, which is undefined behaviour outside it.
int parse_int(const std::string& token, const std::string& context) {
  const double v = parse_double(token, context);
  require(v >= 0.0 && v == std::floor(v),
          "FaultPlan::parse: '" + context + "' needs a non-negative integer");
  require(v <= static_cast<double>(std::numeric_limits<std::int32_t>::max()),
          "FaultPlan::parse: id '" + token + "' above INT32_MAX in '" +
              context + "'");
  return static_cast<int>(v);
}

}  // namespace

std::string FaultPlan::serialize() const {
  std::ostringstream os;
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ";";
    first = false;
  };
  // Bursts serialize as burst@open+span:loss. An end event carries no
  // identity, so it is paired with the OLDEST still-open window (FIFO in
  // time-sorted order). Windows may overlap or nest — hand-written specs
  // can interleave starts and ends freely — and any pairing reproduces
  // the identical event multiset on parse; the injector matches ends the
  // same way.
  std::deque<std::pair<double, double>> open_bursts;  // (open time, loss)
  for (const FaultEvent& e : events_) {
    switch (e.kind) {
      case FaultKind::kCrash:
      case FaultKind::kRecover:
        sep();
        os << (e.kind == FaultKind::kCrash ? "crash@" : "recover@")
           << fmt_num(e.time_ms) << ":" << e.node.value();
        break;
      case FaultKind::kPartition:
      case FaultKind::kHeal:
        sep();
        os << (e.kind == FaultKind::kPartition ? "partition@" : "heal@")
           << fmt_num(e.time_ms) << ":" << e.a.value() << "/" << e.b.value();
        break;
      case FaultKind::kBurstStart:
        open_bursts.emplace_back(e.time_ms, e.loss);
        break;
      case FaultKind::kBurstEnd:
        ensure(!open_bursts.empty(),
               "FaultPlan::serialize: unmatched burst end");
        sep();
        os << "burst@" << fmt_num(open_bursts.front().first) << "+"
           << fmt_num(e.time_ms - open_bursts.front().first) << ":"
           << fmt_num(open_bursts.front().second);
        open_bursts.pop_front();
        break;
    }
  }
  ensure(open_bursts.empty(), "FaultPlan::serialize: unmatched burst start");
  if (base_loss_ > 0.0) {
    sep();
    os << "loss:" << fmt_num(base_loss_);
  }
  if (jitter_ms_ > 0.0) {
    sep();
    os << "jitter:" << fmt_num(jitter_ms_);
  }
  sep();
  os << "seed:" << seed_;
  return os.str();
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  std::vector<FaultEvent> events;
  double base_loss = 0.0;
  double jitter = 0.0;
  std::uint64_t seed = 1;

  std::stringstream ss(spec);
  std::string token;
  while (std::getline(ss, token, ';')) {
    // Trim surrounding whitespace so hand-written specs can breathe.
    const std::size_t b = token.find_first_not_of(" \t\n");
    if (b == std::string::npos) continue;
    const std::size_t e = token.find_last_not_of(" \t\n");
    token = token.substr(b, e - b + 1);

    const std::size_t at = token.find('@');
    const std::size_t colon = token.find(':');
    require(colon != std::string::npos,
            "FaultPlan::parse: missing ':' in '" + token + "'");
    const std::string head = token.substr(0, at == std::string::npos
                                                  ? colon
                                                  : at);
    const bool timed = at != std::string::npos && at < colon;
    require(!timed || (head != "loss" && head != "jitter" && head != "seed"),
            "FaultPlan::parse: '" + head + "' takes no time in '" + token +
                "'");
    if (head == "loss") {
      base_loss = parse_finite(token.substr(colon + 1), token);
      require(base_loss >= 0.0 && base_loss < 1.0,
              "FaultPlan::parse: loss outside [0,1) in '" + token + "'");
      continue;
    }
    if (head == "jitter") {
      jitter = parse_finite(token.substr(colon + 1), token);
      require(jitter >= 0.0, "FaultPlan::parse: negative jitter");
      continue;
    }
    if (head == "seed") {
      // Full-u64 path: serialize() writes the seed verbatim, and a seed
      // (e.g. from HFC_FAULT_SEED) can exceed both INT_MAX (UB through the
      // parse_int cast) and 2^53 (silent precision loss through double).
      const std::string raw = token.substr(colon + 1);
      const char* why = "";
      if (!parse_u64(raw.c_str(), seed, why)) {
        throw std::invalid_argument("FaultPlan::parse: bad seed in '" +
                                    token + "' (" + why + ")");
      }
      continue;
    }
    require(timed, "FaultPlan::parse: expected '<kind>@<time>:...' in '" +
                       token + "'");
    const std::string time_part = token.substr(at + 1, colon - at - 1);
    const std::string arg = token.substr(colon + 1);
    if (head == "crash" || head == "recover") {
      FaultEvent ev;
      ev.time_ms = parse_finite(time_part, token);
      ev.kind = head == "crash" ? FaultKind::kCrash : FaultKind::kRecover;
      ev.node = NodeId(parse_int(arg, token));
      events.push_back(ev);
    } else if (head == "partition" || head == "heal") {
      const std::size_t slash = arg.find('/');
      require(slash != std::string::npos,
              "FaultPlan::parse: expected 'a/b' clusters in '" + token + "'");
      FaultEvent ev;
      ev.time_ms = parse_finite(time_part, token);
      ev.kind = head == "partition" ? FaultKind::kPartition : FaultKind::kHeal;
      ev.a = ClusterId(parse_int(arg.substr(0, slash), token));
      ev.b = ClusterId(parse_int(arg.substr(slash + 1), token));
      events.push_back(ev);
    } else if (head == "burst") {
      // The separating '+' is the first one outside an exponent, as
      // serialize() writes large times in "1e+20" form.
      std::size_t plus = time_part.find('+');
      while (plus != std::string::npos && plus > 0 &&
             (time_part[plus - 1] == 'e' || time_part[plus - 1] == 'E')) {
        plus = time_part.find('+', plus + 1);
      }
      require(plus != std::string::npos,
              "FaultPlan::parse: expected 'burst@open+span:loss' in '" +
                  token + "'");
      const double open = parse_finite(time_part.substr(0, plus), token);
      const double span = parse_finite(time_part.substr(plus + 1), token);
      require(span > 0.0, "FaultPlan::parse: burst span must be positive");
      require(std::isfinite(open + span),
              "FaultPlan::parse: burst end overflows in '" + token + "'");
      // serialize() writes the span back as end - open: the window must
      // close after it opens, and that span must land on the same end.
      const double close = open + span;
      require(close > open && open + (close - open) == close,
              "FaultPlan::parse: burst span lost to rounding in '" + token +
                  "'");
      FaultEvent start;
      start.time_ms = open;
      start.kind = FaultKind::kBurstStart;
      start.loss = parse_finite(arg, token);
      events.push_back(start);
      FaultEvent end;
      end.time_ms = close;
      end.kind = FaultKind::kBurstEnd;
      events.push_back(end);
    } else {
      throw std::invalid_argument("FaultPlan::parse: unknown directive '" +
                                  head + "'");
    }
  }
  return FaultPlan(std::move(events), base_loss, jitter, seed);
}

}  // namespace hfc
