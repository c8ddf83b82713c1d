#include "obs/trace.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/exporters.h"

namespace alicoco::obs {
namespace {

/// Deterministic clock: every read advances by 10us.
Tracer MakeFakeTracer(uint64_t* now) {
  return Tracer([now]() { return *now += 10; });
}

TEST(TracerTest, RecordsSpansInCompletionOrder) {
  uint64_t now = 0;
  Tracer tracer = MakeFakeTracer(&now);
  {
    ScopedSpan outer(&tracer, "outer");
    { ScopedSpan inner(&tracer, "inner"); }
  }
  std::vector<SpanRecord> records = tracer.Records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].name, "inner");
  EXPECT_EQ(records[1].name, "outer");
}

TEST(TracerTest, ParentChildNesting) {
  uint64_t now = 0;
  Tracer tracer = MakeFakeTracer(&now);
  {
    ScopedSpan root(&tracer, "root");
    EXPECT_EQ(root.parent_id(), 0u);
    {
      ScopedSpan child(&tracer, "child");
      EXPECT_EQ(child.parent_id(), root.id());
      {
        ScopedSpan grandchild(&tracer, "grandchild");
        EXPECT_EQ(grandchild.parent_id(), child.id());
      }
    }
    // After the child closed, a new span is root's child again.
    ScopedSpan sibling(&tracer, "sibling");
    EXPECT_EQ(sibling.parent_id(), root.id());
  }
  EXPECT_EQ(tracer.size(), 4u);
}

TEST(TracerTest, SpansOnOtherThreadsAreRoots) {
  Tracer tracer;
  ScopedSpan main_span(&tracer, "main");
  uint64_t observed_parent = 99;
  std::thread t([&] {
    ScopedSpan worker_span(&tracer, "worker");
    observed_parent = worker_span.parent_id();
  });
  t.join();
  EXPECT_EQ(observed_parent, 0u);  // parent chain is per-thread
}

TEST(TracerTest, InterleavedTracersDoNotAdoptEachOthersIds) {
  uint64_t now_a = 0, now_b = 0;
  Tracer tracer_a = MakeFakeTracer(&now_a);
  Tracer tracer_b = MakeFakeTracer(&now_b);
  ScopedSpan outer(&tracer_a, "outer");
  {
    // tracer_b's span opens inside tracer_a's — it must still be a root
    // of its own trace, not a child of a foreign span id.
    ScopedSpan other(&tracer_b, "other");
    EXPECT_EQ(other.parent_id(), 0u);
    // ...and tracer_a spans nested below still chain to tracer_a.
    ScopedSpan inner(&tracer_a, "inner");
    EXPECT_EQ(inner.parent_id(), outer.id());
  }
  ScopedSpan after(&tracer_a, "after");
  EXPECT_EQ(after.parent_id(), outer.id());
}

TEST(TracerTest, DurationsComeFromTheInjectedClock) {
  uint64_t now = 0;
  Tracer tracer = MakeFakeTracer(&now);
  {
    ScopedSpan span(&tracer, "timed");  // start = 10
  }                                     // end = 20
  std::vector<SpanRecord> records = tracer.Records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].start_us, 10u);
  EXPECT_EQ(records[0].duration_us, 10u);
}

TEST(TracerTest, DrainClearsTheCollection) {
  Tracer tracer;
  { ScopedSpan span(&tracer, "one"); }
  EXPECT_EQ(tracer.Drain().size(), 1u);
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(TracerTest, SpanListenerSeesEachFinishedSpanAndCollectionGoesOn) {
  Tracer tracer;
  std::vector<std::string> seen;
  tracer.SetSpanListener(
      [&seen](const SpanRecord& span) { seen.push_back(span.name); });
  {
    ScopedSpan outer(&tracer, "pipeline.build");
    ScopedSpan inner(&tracer, "pipeline.mining");
  }
  EXPECT_EQ(seen, (std::vector<std::string>{"pipeline.mining",
                                            "pipeline.build"}));
  EXPECT_EQ(tracer.size(), 2u);
}

TEST(ScopedSpanTest, NullTracerIsANoOp) {
  ScopedSpan span(nullptr, "ignored");
  span.AddAttribute("k", "v");
  span.AddAttribute("n", uint64_t{3});
  span.AddAttribute("d", 1.5);
  EXPECT_EQ(span.id(), 0u);
  EXPECT_EQ(span.ElapsedUs(), 0u);
}

TEST(ScopedSpanTest, AttributeFormatting) {
  uint64_t now = 0;
  Tracer tracer = MakeFakeTracer(&now);
  {
    ScopedSpan span(&tracer, "attrs");
    span.AddAttribute("s", "text");
    span.AddAttribute("n", uint64_t{42});
    span.AddAttribute("d", 0.93);
  }
  std::vector<SpanRecord> records = tracer.Records();
  ASSERT_EQ(records.size(), 1u);
  ASSERT_EQ(records[0].attributes.size(), 3u);
  EXPECT_EQ(records[0].attributes[0].second, "text");
  EXPECT_EQ(records[0].attributes[1].second, "42");
  EXPECT_EQ(records[0].attributes[2].second, "0.93");
}

TEST(TraceJsonlExportTest, GoldenOutput) {
  uint64_t now = 0;
  Tracer tracer = MakeFakeTracer(&now);
  {
    ScopedSpan build(&tracer, "pipeline.build");  // start = 10
    {
      ScopedSpan mining(&tracer, "pipeline.mining");  // start = 20
      mining.AddAttribute("epochs", uint64_t{2});
      mining.AddAttribute("precision", 0.93);
    }  // end = 30
  }    // end = 40

  const std::string expected =
      "{\"span_id\":1,\"parent_id\":0,\"name\":\"pipeline.build\","
      "\"start_us\":10,\"duration_us\":30,\"attributes\":{}}\n"
      "{\"span_id\":2,\"parent_id\":1,\"name\":\"pipeline.mining\","
      "\"start_us\":20,\"duration_us\":10,\"attributes\":"
      "{\"epochs\":\"2\",\"precision\":\"0.93\"}}\n";
  EXPECT_EQ(ExportTraceJsonl(tracer.Records()), expected);
}

TEST(TraceJsonlExportTest, EscapesSpecialCharacters) {
  uint64_t now = 0;
  Tracer tracer = MakeFakeTracer(&now);
  { ScopedSpan span(&tracer, "a\"b\\c\nd"); }
  std::string jsonl = ExportTraceJsonl(tracer.Records());
  EXPECT_NE(jsonl.find("\"name\":\"a\\\"b\\\\c\\nd\""), std::string::npos);
}

}  // namespace
}  // namespace alicoco::obs
