// The metrics library itself: bucketing, time-weighted averaging,
// deterministic sample decimation, and the JSON/CSV exporters (the JSON is
// parsed back, not string-matched).  Also covers the sim-time stamping of
// EXS_LOG lines, which rides on the same SimClock interface.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/sim_clock.hpp"
#include "common/units.hpp"

namespace exs::metrics {
namespace {

TEST(Counter, AccumulatesIncrementsAndAdds) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, LastWriteWins) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.Set(3.5);
  g.Set(-1.0);
  EXPECT_EQ(g.value(), -1.0);
}

TEST(Histogram, BucketBoundaries) {
  // Bucket 0 holds only the value 0; bucket b >= 1 holds [2^(b-1), 2^b).
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10u);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11u);
  EXPECT_EQ(Histogram::BucketIndex(~std::uint64_t{0}), 64u);

  EXPECT_EQ(Histogram::BucketLowerBound(0), 0u);
  EXPECT_EQ(Histogram::BucketLowerBound(1), 1u);
  EXPECT_EQ(Histogram::BucketLowerBound(11), 1024u);

  Histogram h;
  h.Record(0);
  h.Record(3);
  h.Record(1024);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 1027u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1024u);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[2], 1u);
  EXPECT_EQ(h.buckets()[11], 1u);
}

TEST(Histogram, PercentilesAreOrderedAndBounded) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  double p50 = h.Percentile(50);
  double p90 = h.Percentile(90);
  double p99 = h.Percentile(99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_GE(p50, static_cast<double>(h.min()));
  EXPECT_LE(p99, 2.0 * static_cast<double>(h.max()));
  EXPECT_EQ(h.Percentile(0), static_cast<double>(h.min()));
  EXPECT_EQ(h.Percentile(100), static_cast<double>(h.max()));
  // A log-bucketed p50 of uniform 1..1000 must land near the median's
  // bucket [512, 1024); anything outside signals broken bucket walking.
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 1024.0);
}

TEST(Histogram, UnrecordedReadsEmptyAndFirstRecordMatchesEager) {
  Histogram empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.sum(), 0u);
  EXPECT_EQ(empty.min(), 0u);
  EXPECT_EQ(empty.max(), 0u);
  EXPECT_EQ(empty.Mean(), 0.0);
  for (double p : {0.0, 50.0, 99.9, 100.0}) {
    EXPECT_EQ(empty.Percentile(p), 0.0);
  }
  for (std::uint64_t b : empty.buckets()) EXPECT_EQ(b, 0u);

  // After the first Record the buckets exist and count exactly what a
  // bucket-by-bucket tally of the same values gives.
  const std::vector<std::uint64_t> values = {0, 1, 7, 7, 300, 1u << 20};
  Histogram h;
  std::vector<std::uint64_t> expected(Histogram::kBuckets, 0);
  for (std::uint64_t v : values) {
    h.Record(v);
    ++expected[Histogram::BucketIndex(v)];
  }
  EXPECT_EQ(std::vector<std::uint64_t>(h.buckets().begin(), h.buckets().end()),
            expected);
  EXPECT_EQ(h.count(), values.size());
  EXPECT_EQ(h.sum(), 0u + 1 + 7 + 7 + 300 + (1u << 20));
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1u << 20);
  // Rank 3 of 6 is the second 7: interpolated inside bucket [4, 8).
  EXPECT_DOUBLE_EQ(h.Percentile(50), 4.0 + 4.0 * (3.0 - 2.0) / 2.0);
}

TEST(TimeWeightedSeries, AverageWeightsByHeldTime) {
  TimeWeightedSeries s;
  EXPECT_EQ(s.Average(100), 0.0);  // nothing recorded yet
  s.Record(0, 10.0);
  s.Record(100, 20.0);
  // 10 held for [0,100), 20 held for [100,200): average 15.
  EXPECT_DOUBLE_EQ(s.Average(200), 15.0);
  // A short spike barely moves it: 1000 held for the last instant only.
  s.Record(200, 1000.0);
  EXPECT_DOUBLE_EQ(s.Average(200), 15.0);
  EXPECT_EQ(s.last(), 1000.0);
  EXPECT_EQ(s.min(), 10.0);
  EXPECT_EQ(s.max(), 1000.0);
}

TEST(TimeWeightedSeries, SameInstantOverwritesLastSample) {
  TimeWeightedSeries s;
  s.Record(50, 1.0);
  s.Record(50, 2.0);
  ASSERT_EQ(s.samples().size(), 1u);
  EXPECT_EQ(s.samples()[0].value, 2.0);
  // The value that settled at t=50 is what the integral carries forward.
  EXPECT_DOUBLE_EQ(s.Average(150), 2.0);
}

TEST(TimeWeightedSeries, DecimationIsBoundedAndDeterministic) {
  auto fill = [](TimeWeightedSeries& s) {
    for (std::uint64_t i = 0; i < 10 * TimeWeightedSeries::kMaxSamples; ++i) {
      s.Record(static_cast<SimTime>(i * 7), static_cast<double>(i % 13));
    }
  };
  TimeWeightedSeries a, b;
  fill(a);
  fill(b);
  EXPECT_LE(a.samples().size(), TimeWeightedSeries::kMaxSamples);
  EXPECT_GE(a.samples().size(), TimeWeightedSeries::kMaxSamples / 4);
  ASSERT_EQ(a.samples().size(), b.samples().size());
  for (std::size_t i = 0; i < a.samples().size(); ++i) {
    EXPECT_EQ(a.samples()[i].time, b.samples()[i].time);
    EXPECT_EQ(a.samples()[i].value, b.samples()[i].value);
  }
  // Retention never distorts the exact integral.
  SimTime end = static_cast<SimTime>(10 * TimeWeightedSeries::kMaxSamples * 7);
  EXPECT_NEAR(a.Average(end), 6.0, 0.1);  // mean of i % 13 over a long run
}

TEST(TimeWeightedSeries, EmptySeriesExportsAsZeroes) {
  Registry reg;
  reg.GetSeries("idle", "bytes");  // registered, never recorded
  const TimeWeightedSeries& s = *reg.series().at("idle").instrument;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.Average(1000), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  EXPECT_TRUE(s.samples().empty());

  json::Value root;
  std::string error;
  ASSERT_TRUE(json::Parse(reg.ToJson(/*now=*/1000), &root, &error)) << error;
  const json::Value* series = root.Find("series")->Find("idle");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->Find("avg")->number_value, 0.0);
  EXPECT_TRUE(series->Find("samples")->array_items.empty());
}

TEST(TimeWeightedSeries, SingleSampleHoldsItsValueForever) {
  TimeWeightedSeries s;
  s.Record(50, 3.0);
  EXPECT_EQ(s.count(), 1u);
  ASSERT_EQ(s.samples().size(), 1u);
  EXPECT_EQ(s.samples()[0].time, 50);
  // The step function is constant after its only sample.
  EXPECT_DOUBLE_EQ(s.Average(50), 3.0);
  EXPECT_DOUBLE_EQ(s.Average(100000), 3.0);
  EXPECT_EQ(s.min(), 3.0);
  EXPECT_EQ(s.max(), 3.0);
}

TEST(TimeWeightedSeries, ExportAfterSameTimestampDoubleWrite) {
  // The overwrite path (two Records at one instant) must leave the
  // exported snapshot well-formed: one retained sample carrying the
  // final value, and the integral built from it alone.
  Registry reg;
  TimeWeightedSeries& s = reg.GetSeries("ring", "bytes");
  s.Record(100, 1.0);
  s.Record(100, 5.0);

  json::Value root;
  std::string error;
  ASSERT_TRUE(json::Parse(reg.ToJson(/*now=*/300), &root, &error)) << error;
  const json::Value* series = root.Find("series")->Find("ring");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->Find("samples")->array_items.size(), 1u);
  EXPECT_EQ(series->Find("samples")->array_items[0].array_items.size(), 2u);
  EXPECT_EQ(series->Find("last")->number_value, 5.0);
  EXPECT_EQ(series->Find("avg")->number_value, 5.0);
  EXPECT_EQ(series->Find("max")->number_value, 5.0);
}

TEST(Registry, JsonSnapshotParsesBack) {
  Registry reg;
  reg.GetCounter("tx.bytes", "bytes").Add(12345);
  reg.GetGauge("tx.phase", "phase").Set(4);
  Histogram& h = reg.GetHistogram("rtt", "ps");
  h.Record(100);
  h.Record(900);
  TimeWeightedSeries& s = reg.GetSeries("ring", "bytes");
  s.Record(0, 0.0);
  s.Record(500, 64.0);

  std::string text = reg.ToJson(/*now=*/1000);
  json::Value root;
  std::string error;
  ASSERT_TRUE(json::Parse(text, &root, &error)) << error << "\n" << text;

  const json::Value* counters = root.Find("counters");
  ASSERT_NE(counters, nullptr);
  const json::Value* counter = counters->Find("tx.bytes");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->Find("value")->number_value, 12345.0);
  EXPECT_EQ(counter->Find("unit")->string_value, "bytes");

  const json::Value* gauge = root.Find("gauges")->Find("tx.phase");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->Find("value")->number_value, 4.0);

  const json::Value* hist = root.Find("histograms")->Find("rtt");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->Find("count")->number_value, 2.0);
  EXPECT_EQ(hist->Find("sum")->number_value, 1000.0);
  ASSERT_NE(hist->Find("p999"), nullptr);
  EXPECT_GE(hist->Find("p999")->number_value,
            hist->Find("p50")->number_value);
  ASSERT_TRUE(hist->Find("buckets")->IsArray());
  EXPECT_EQ(hist->Find("buckets")->array_items.size(), 2u);

  const json::Value* series = root.Find("series")->Find("ring");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->Find("last")->number_value, 64.0);
  // 0 held for [0,500), 64 for [500,1000): time-weighted average 32.
  EXPECT_EQ(series->Find("avg")->number_value, 32.0);
  EXPECT_EQ(series->Find("samples")->array_items.size(), 2u);
}

TEST(Registry, SnapshotsAreDeterministic) {
  auto build = [] {
    Registry reg;
    reg.GetCounter("b", "x").Add(2);
    reg.GetCounter("a", "y").Add(1);
    reg.GetSeries("s", "z").Record(10, 1.5);
    return reg.ToJson(100) + "\n" + reg.ToCsv(100);
  };
  EXPECT_EQ(build(), build());
}

TEST(Registry, CsvHasHeaderAndOneRowPerScalar) {
  Registry reg;
  reg.GetCounter("c", "ops").Increment();
  reg.GetGauge("g", "").Set(1);
  std::string csv = reg.ToCsv(0);
  std::istringstream in(csv);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "name,kind,unit,field,value");
  EXPECT_EQ(lines[1], "c,counter,ops,value,1");
  EXPECT_EQ(lines[2], "g,gauge,,value,1");
}

// A bound schema (the socket's static tier) and by-name instruments share
// one name space: Get* resolves a declared name to the bound instrument,
// the views merge both tiers in name order, and a declared instrument is
// in every snapshot whether or not it was recorded.
TEST(Registry, BoundSchemaAndByNameInstrumentsShareOneNameSpace) {
  static constexpr InstrumentSpec kCounterSpecs[] = {{"b.sent", "bytes"},
                                                     {"d.ops", "ops"}};
  static constexpr InstrumentSpec kHistogramSpecs[] = {{"rtt", "ps"}};
  Counter counters[2];
  Histogram histograms[1];
  Registry reg;
  reg.Bind(kCounterSpecs, counters);
  reg.Bind(kHistogramSpecs, histograms);

  EXPECT_EQ(&reg.GetCounter("b.sent"), &counters[0]);
  EXPECT_EQ(&reg.GetHistogram("rtt", "ps"), &histograms[0]);
  reg.GetCounter("c.named", "wrs").Add(3);
  reg.GetCounter("a.named", "ops").Add(1);
  counters[1].Add(7);

  std::vector<std::string> names;
  for (const auto& [name, entry] : reg.counters()) {
    names.push_back(std::string(name) + "=" +
                    std::to_string(entry.instrument->value()) + "/" +
                    std::string(entry.unit));
  }
  EXPECT_EQ(names, (std::vector<std::string>{"a.named=1/ops", "b.sent=0/bytes",
                                             "c.named=3/wrs", "d.ops=7/ops"}));
  const auto counters_view = reg.counters();
  EXPECT_EQ(counters_view.count("d.ops"), 1u);
  EXPECT_EQ(counters_view.count("missing"), 0u);
  EXPECT_THROW(counters_view.at("missing"), std::out_of_range);
  // find() positions a live iterator: stepping on from a found entry
  // continues the merged order.
  auto it = reg.counters().find("b.sent");
  ASSERT_NE(it, reg.counters().end());
  EXPECT_EQ(it->second.instrument.get(), &counters[0]);
  ++it;
  EXPECT_EQ(it->first, "c.named");
  EXPECT_EQ(reg.histograms().find("rtt")->second.instrument->count(), 0u);

  // The never-recorded bound histogram is exported with zero values.
  EXPECT_EQ(reg.ToCsv(0),
            "name,kind,unit,field,value\n"
            "a.named,counter,ops,value,1\n"
            "b.sent,counter,bytes,value,0\n"
            "c.named,counter,wrs,value,3\n"
            "d.ops,counter,ops,value,7\n"
            "rtt,histogram,ps,count,0\n"
            "rtt,histogram,ps,sum,0\n"
            "rtt,histogram,ps,min,0\n"
            "rtt,histogram,ps,max,0\n"
            "rtt,histogram,ps,mean,0\n"
            "rtt,histogram,ps,p50,0\n"
            "rtt,histogram,ps,p90,0\n"
            "rtt,histogram,ps,p99,0\n"
            "rtt,histogram,ps,p999,0\n");
}

class FixedClock : public SimClock {
 public:
  explicit FixedClock(SimTime t) : t_(t) {}
  SimTime Now() const override { return t_; }

 private:
  SimTime t_;
};

TEST(Logging, LinesCarrySimTimeWhenClockRegistered) {
  FixedClock clock(Microseconds(125) + Nanoseconds(500));
  LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kInfo);
  SetLogClock(&clock);
  ::testing::internal::CaptureStderr();
  EXS_INFO("stamped message");
  std::string with_clock = ::testing::internal::GetCapturedStderr();
  SetLogClock(nullptr);
  ::testing::internal::CaptureStderr();
  EXS_INFO("plain message");
  std::string without_clock = ::testing::internal::GetCapturedStderr();
  SetLogLevel(saved);

  EXPECT_NE(with_clock.find("[INFO 125.500us] stamped message"),
            std::string::npos)
      << with_clock;
  EXPECT_NE(without_clock.find("[INFO] plain message"), std::string::npos)
      << without_clock;
}

}  // namespace
}  // namespace exs::metrics
