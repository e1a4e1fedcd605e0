#include "trace/history.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "support/rng.h"
#include "trace/prp_plan.h"
#include "trace/rollback.h"

namespace rbx {
namespace {

TEST(History, RecordsRecoveryPointsInOrder) {
  History h(2);
  h.add_recovery_point(0, 1.0);
  h.add_recovery_point(1, 2.0);
  h.add_recovery_point(0, 3.0);
  EXPECT_EQ(h.rp_count(0), 2u);
  EXPECT_EQ(h.rp_count(1), 1u);
  EXPECT_EQ(h.rp_times(0), (std::vector<double>{1.0, 3.0}));
  EXPECT_DOUBLE_EQ(h.last_time(), 3.0);
  EXPECT_EQ(h.events().size(), 3u);
}

TEST(History, LatestRpQueries) {
  History h(1);
  h.add_recovery_point(0, 1.0);
  h.add_recovery_point(0, 2.0);
  h.add_recovery_point(0, 3.0);

  const auto at2 = h.latest_rp_at_or_before(0, 2.0);
  ASSERT_TRUE(at2.has_value());
  EXPECT_DOUBLE_EQ(at2->time, 2.0);
  EXPECT_EQ(at2->rp_seq, 2u);
  EXPECT_FALSE(at2->is_initial);
  EXPECT_FALSE(at2->is_pseudo);

  const auto before2 = h.latest_rp_before(0, 2.0);
  ASSERT_TRUE(before2.has_value());
  EXPECT_DOUBLE_EQ(before2->time, 1.0);
  EXPECT_EQ(before2->rp_seq, 1u);

  EXPECT_FALSE(h.latest_rp_before(0, 1.0).has_value());
  EXPECT_FALSE(h.latest_rp_at_or_before(0, 0.5).has_value());
}

TEST(History, InteractionQueriesAreSymmetricAndOrdered) {
  History h(3);
  h.add_interaction(0, 1, 1.0);
  h.add_interaction(1, 0, 2.0);  // reversed order, same pair
  h.add_interaction(1, 2, 3.0);

  EXPECT_EQ(h.interaction_times(0, 1), (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(h.interaction_times(1, 0), (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(h.interaction_times(0, 2).size(), 0u);

  EXPECT_TRUE(h.has_interaction_in(0, 1, 0.5, 1.5));
  EXPECT_TRUE(h.has_interaction_in(0, 1, 1.0, 1.0));  // closed interval
  EXPECT_FALSE(h.has_interaction_in(0, 1, 2.5, 9.0));
  // Bounds swap transparently.
  EXPECT_TRUE(h.has_interaction_in(0, 1, 1.5, 0.5));

  const auto first = h.first_interaction_in(0, 1, 0.0, 10.0);
  ASSERT_TRUE(first.has_value());
  EXPECT_DOUBLE_EQ(*first, 1.0);
}

TEST(History, PrpLookup) {
  History h(3);
  h.add_recovery_point(0, 1.0);
  h.add_pseudo_recovery_point(1, 1.01, 0, 1);
  h.add_pseudo_recovery_point(2, 1.02, 0, 1);
  h.add_recovery_point(0, 2.0);
  h.add_pseudo_recovery_point(1, 2.01, 0, 2);

  const auto prp = h.prp_for(1, 0, 1);
  ASSERT_TRUE(prp.has_value());
  EXPECT_DOUBLE_EQ(prp->time, 1.01);
  EXPECT_TRUE(prp->is_pseudo);

  const auto prp2 = h.prp_for(1, 0, 2);
  ASSERT_TRUE(prp2.has_value());
  EXPECT_DOUBLE_EQ(prp2->time, 2.01);

  EXPECT_FALSE(h.prp_for(2, 0, 2).has_value());
  EXPECT_FALSE(h.prp_for(1, 0, 9).has_value());
}

// The queries gallop back from the newest entry; each must return what a
// bisection of the whole vector returns.  Times are whole numbers with runs
// of equal times (the PRP simulator's clamp writes such runs), and the
// probes step by halves from before the first entry to after the last, so
// every probe sits before, at, between or after entries.
TEST(History, SearchesMatchBisectingTheWholeVector) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(0x6a110b);
  for (int trial = 0; trial < 300; ++trial) {
    // Process 0's RPs and pair {0, 1} are filled; process 1 has no RP and
    // pair {0, 2} no interaction, so empty vectors are probed too.
    History h(3);
    const std::size_t events = rng.uniform_index(200);
    double t = 0.0;
    for (std::size_t e = 0; e < events; ++e) {
      if (rng.bernoulli(0.6)) {
        t += 1.0;
      }
      if (rng.bernoulli(0.5)) {
        h.add_recovery_point(0, t);
      } else if (rng.bernoulli(0.5)) {
        h.add_interaction(0, 1, t);
      } else {
        h.add_interaction(1, 0, t);
      }
    }
    std::vector<double> probes = {-kInf, kInf};
    for (double x = -1.0; x <= t + 1.0; x += 0.5) {
      probes.push_back(x);
    }

    for (const ProcessId p : {ProcessId{0}, ProcessId{1}}) {
      const std::vector<double>& v = h.rp_times(p);
      for (const double x : probes) {
        const auto upper = std::upper_bound(v.begin(), v.end(), x);
        const auto at = h.latest_rp_at_or_before(p, x);
        ASSERT_EQ(at.has_value(), upper != v.begin()) << "t=" << x;
        if (at) {
          EXPECT_EQ(at->time, *(upper - 1));
          EXPECT_EQ(at->rp_seq, static_cast<std::size_t>(upper - v.begin()));
          EXPECT_FALSE(at->is_initial);
          EXPECT_FALSE(at->is_pseudo);
        }
        const auto lower = std::lower_bound(v.begin(), v.end(), x);
        const auto before = h.latest_rp_before(p, x);
        ASSERT_EQ(before.has_value(), lower != v.begin()) << "t=" << x;
        if (before) {
          EXPECT_EQ(before->time, *(lower - 1));
          EXPECT_EQ(before->rp_seq,
                    static_cast<std::size_t>(lower - v.begin()));
        }
      }
    }

    for (const ProcessId b : {ProcessId{1}, ProcessId{2}}) {
      const std::vector<double>& v = h.interaction_times(0, b);
      for (const double lo : probes) {
        for (const double width : {0.0, 0.5, 1.0, 3.0, kInf}) {
          const double hi = width == kInf ? kInf : lo + width;
          const auto it = std::lower_bound(v.begin(), v.end(), lo);
          const bool hit = it != v.end() && *it <= hi;
          for (const auto& [x, y] : {std::pair{lo, hi}, std::pair{hi, lo}}) {
            const auto first = h.first_interaction_in(b, 0, x, y);
            ASSERT_EQ(first.has_value(), hit) << "[" << x << ", " << y << "]";
            if (first) {
              EXPECT_EQ(*first, *it);
            }
            EXPECT_EQ(h.has_interaction_in(0, b, x, y), hit);
          }
        }
      }
    }
  }
}

// events() is derived from the indices: with distinct times it lists the
// append order, each interaction as (lower, higher) party.
TEST(History, EventsListTheAppendOrder) {
  History h(3);
  std::vector<TraceEvent> expected;
  const auto rp = [&](ProcessId p, double t) {
    h.add_recovery_point(p, t);
    expected.push_back({EventKind::kRecoveryPoint, t, p, p, h.rp_count(p)});
  };
  const auto prp = [&](ProcessId p, double t, ProcessId owner,
                       std::size_t seq) {
    h.add_pseudo_recovery_point(p, t, owner, seq);
    expected.push_back({EventKind::kPseudoRecoveryPoint, t, p, owner, seq});
  };
  const auto ix = [&](ProcessId a, ProcessId b, double t) {
    h.add_interaction(a, b, t);
    expected.push_back(
        {EventKind::kInteraction, t, std::min(a, b), std::max(a, b), 0});
  };
  rp(1, 0.5);
  ix(2, 0, 0.7);
  prp(0, 0.8, 1, 1);
  prp(2, 0.9, 1, 1);
  ix(0, 1, 1.0);
  rp(0, 1.5);
  ix(2, 1, 1.6);
  prp(1, 1.7, 0, 1);
  prp(2, 1.8, 0, 1);
  rp(2, 2.0);
  ix(1, 0, 2.5);
  rp(1, 3.0);
  prp(0, 3.1, 1, 2);
  ix(0, 2, 3.2);
  rp(0, 4.0);

  const std::vector<TraceEvent> events = h.events();
  ASSERT_EQ(events.size(), expected.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].kind, expected[i].kind) << "event " << i;
    EXPECT_EQ(events[i].time, expected[i].time) << "event " << i;
    EXPECT_EQ(events[i].process, expected[i].process) << "event " << i;
    EXPECT_EQ(events[i].peer, expected[i].peer) << "event " << i;
    EXPECT_EQ(events[i].rp_seq, expected[i].rp_seq) << "event " << i;
  }
}

// Events sharing a time: RPs, then PRPs, then interactions, each by
// process or pair.
TEST(History, EventsAtOneTimeListRpsThenPrpsThenInteractions) {
  History h(3);
  h.add_interaction(2, 1, 5.0);
  h.add_interaction(1, 0, 5.0);
  h.add_pseudo_recovery_point(2, 5.0, 0, 1);
  h.add_pseudo_recovery_point(1, 5.0, 0, 1);
  h.add_recovery_point(2, 5.0);
  h.add_recovery_point(0, 5.0);

  const std::vector<TraceEvent> events = h.events();
  ASSERT_EQ(events.size(), 6u);
  const std::vector<std::pair<EventKind, ProcessId>> order = {
      {EventKind::kRecoveryPoint, 0},
      {EventKind::kRecoveryPoint, 2},
      {EventKind::kPseudoRecoveryPoint, 1},
      {EventKind::kPseudoRecoveryPoint, 2},
      {EventKind::kInteraction, 0},
      {EventKind::kInteraction, 1}};
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(events[i].kind, order[i].first) << "event " << i;
    EXPECT_EQ(events[i].process, order[i].second) << "event " << i;
  }
  EXPECT_EQ(events[4].peer, 1u);
  EXPECT_EQ(events[5].peer, 2u);
}

// Twin histories of one simulated run: `lines` records each RP's pseudo
// recovery line with one add_pseudo_recovery_line call, `singles` with the
// n - 1 add_pseudo_recovery_point calls it stands for.  Times are whole or
// half units that often repeat, so ties between RPs, PRPs and
// interactions are common; some RPs get no line at all.  Events start
// after time 0, the time of the processes' initial states.
struct Twins {
  History lines;
  History singles;
};

Twins simulated_twins(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Twins h{History(n), History(n)};
  double t = 0.5;
  double cursor = 0.0;
  const auto clamp = [&cursor](double time) {
    cursor = std::max(cursor, time);
    return cursor;
  };
  const std::size_t events = 40 + rng.uniform_index(160);
  for (std::size_t e = 0; e < events; ++e) {
    if (rng.bernoulli(0.6)) {
      t += 0.5;
    }
    if (n == 1 || rng.bernoulli(0.45)) {
      const ProcessId p = rng.uniform_index(n);
      const double rp_time = clamp(t);
      h.lines.add_recovery_point(p, rp_time);
      h.singles.add_recovery_point(p, rp_time);
      if (rng.bernoulli(0.15)) {
        continue;  // an RP whose line was never recorded
      }
      const std::size_t seq = h.lines.rp_count(p);
      const double line_time = clamp(t + 0.5 * rng.uniform_index(3));
      h.lines.add_pseudo_recovery_line(p, line_time, seq);
      for (ProcessId q = 0; q < n; ++q) {
        if (q != p) {
          h.singles.add_pseudo_recovery_point(q, line_time, p, seq);
        }
      }
    } else {
      const ProcessId a = rng.uniform_index(n);
      const ProcessId b = (a + 1 + rng.uniform_index(n - 1)) % n;
      const double time = clamp(t);
      h.lines.add_interaction(a, b, time);
      h.singles.add_interaction(a, b, time);
    }
  }
  return h;
}

void expect_same_point(const RestartPoint& x, const RestartPoint& y) {
  EXPECT_EQ(x.time, y.time);
  EXPECT_EQ(x.is_initial, y.is_initial);
  EXPECT_EQ(x.is_pseudo, y.is_pseudo);
  EXPECT_EQ(x.rp_seq, y.rp_seq);
}

// A line is observably the n - 1 single PRPs it stands for: the same
// events, PRP lookups, PRP rollback plans (both scopes, with and without
// affects_everyone) and asynchronous rollback analyses.
TEST(History, PseudoRecoveryLineEqualsItsSinglePrps) {
  for (const std::size_t n : {1u, 2u, 3u, 5u}) {
    for (std::uint64_t trial = 0; trial < 12; ++trial) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " trial " << trial);
      const Twins h = simulated_twins(n, 0x11e5 + 97 * n + trial);
      EXPECT_EQ(h.lines.last_time(), h.singles.last_time());

      const std::vector<TraceEvent> x = h.lines.events();
      const std::vector<TraceEvent> y = h.singles.events();
      ASSERT_EQ(x.size(), y.size());
      for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_EQ(x[i].kind, y[i].kind) << "event " << i;
        EXPECT_EQ(x[i].time, y[i].time) << "event " << i;
        EXPECT_EQ(x[i].process, y[i].process) << "event " << i;
        EXPECT_EQ(x[i].peer, y[i].peer) << "event " << i;
        EXPECT_EQ(x[i].rp_seq, y[i].rp_seq) << "event " << i;
      }

      for (ProcessId q = 0; q < n; ++q) {
        for (ProcessId owner = 0; owner < n; ++owner) {
          for (std::size_t seq = 0; seq <= h.lines.rp_count(owner) + 1;
               ++seq) {
            const auto a = h.lines.prp_for(q, owner, seq);
            const auto b = h.singles.prp_for(q, owner, seq);
            ASSERT_EQ(a.has_value(), b.has_value())
                << "prp_for(" << q << ", " << owner << ", " << seq << ")";
            if (a) {
              expect_same_point(*a, *b);
            }
          }
        }
      }

      std::vector<double> failure_times;
      for (double t_f = 0.0; t_f <= h.lines.last_time() + 1.0; t_f += 0.25) {
        failure_times.push_back(t_f);
      }
      const RollbackAnalyzer async_x(h.lines);
      const RollbackAnalyzer async_y(h.singles);
      for (const bool everyone : {true, false}) {
        const PrpRollbackPlanner plan_x(h.lines, everyone);
        const PrpRollbackPlanner plan_y(h.singles, everyone);
        for (const ErrorScope scope :
             {ErrorScope::kLocal, ErrorScope::kPropagated}) {
          for (ProcessId p = 0; p < n; ++p) {
            for (const double t_f : failure_times) {
              const PrpRollbackResult a = plan_x.plan(p, t_f, scope);
              const PrpRollbackResult b = plan_y.plan(p, t_f, scope);
              ASSERT_EQ(a.restart.size(), b.restart.size());
              for (ProcessId q = 0; q < n; ++q) {
                expect_same_point(a.restart[q], b.restart[q]);
              }
              EXPECT_EQ(a.affected, b.affected);
              EXPECT_EQ(a.affected_count, b.affected_count);
              EXPECT_EQ(a.iterations, b.iterations);
              EXPECT_EQ(a.rollback_distance, b.rollback_distance);
              EXPECT_EQ(a.distance, b.distance);
              EXPECT_EQ(a.domino_to_start, b.domino_to_start);
            }
          }
        }
      }
      for (ProcessId p = 0; p < n; ++p) {
        for (const double t_f : failure_times) {
          const RollbackResult a = async_x.analyze_failure(p, t_f);
          const RollbackResult b = async_y.analyze_failure(p, t_f);
          ASSERT_EQ(a.line.points.size(), b.line.points.size());
          for (ProcessId q = 0; q < n; ++q) {
            expect_same_point(a.line.points[q], b.line.points[q]);
          }
          EXPECT_EQ(a.affected, b.affected);
          EXPECT_EQ(a.affected_count, b.affected_count);
          EXPECT_EQ(a.rollback_distance, b.rollback_distance);
          EXPECT_EQ(a.distance, b.distance);
          EXPECT_EQ(a.domino_to_start, b.domino_to_start);
        }
      }
    }
  }
}

TEST(History, RecoveryLineTimeSpan) {
  RecoveryLine line;
  line.points = {RestartPoint{1.0, false, false, 1},
                 RestartPoint{3.0, false, false, 2},
                 RestartPoint{2.0, false, false, 1}};
  EXPECT_DOUBLE_EQ(line.min_time(), 1.0);
  EXPECT_DOUBLE_EQ(line.max_time(), 3.0);
}

TEST(HistoryDeathTest, RejectsOutOfOrderEvents) {
  History h(2);
  h.add_recovery_point(0, 5.0);
  EXPECT_DEATH(h.add_recovery_point(1, 4.0), "time-ordered");
}

// The line call checks what add_pseudo_recovery_point checks (owner in
// range, time order), and that it is the first line of the owner's newest
// RP.
TEST(HistoryDeathTest, PseudoRecoveryLineChecksItsRp) {
  History h(3);
  EXPECT_DEATH(h.add_pseudo_recovery_line(0, 1.0, 0), "newest RP");
  h.add_recovery_point(0, 1.0);
  h.add_recovery_point(0, 2.0);
  EXPECT_DEATH(h.add_pseudo_recovery_line(3, 2.0, 1), "");
  EXPECT_DEATH(h.add_pseudo_recovery_line(0, 2.0, 1), "newest RP");
  EXPECT_DEATH(h.add_pseudo_recovery_line(0, 2.0, 3), "newest RP");
  EXPECT_DEATH(h.add_pseudo_recovery_line(1, 2.0, 0), "newest RP");
  EXPECT_DEATH(h.add_pseudo_recovery_line(0, 1.5, 2), "time-ordered");
  h.add_pseudo_recovery_line(0, 2.5, 2);
  EXPECT_DEATH(h.add_pseudo_recovery_line(0, 2.5, 2), "one line per RP");
}

TEST(HistoryDeathTest, RejectsSelfInteraction) {
  History h(2);
  EXPECT_DEATH(h.add_interaction(1, 1, 1.0), "");
}

}  // namespace
}  // namespace rbx
