#include <gtest/gtest.h>

#include "test_util.hpp"

namespace cps {
namespace {

using testing::small_arch;

TEST(CpgBuilder, AttachesDummySourceAndSink) {
  CpgBuilder b(small_arch());
  const ProcessId p1 = b.add_process("P1", 0, 2);
  const ProcessId p2 = b.add_process("P2", 0, 3);
  b.add_edge(p1, p2);
  const Cpg g = b.build();

  EXPECT_EQ(g.ordinary_process_count(), 2u);
  EXPECT_EQ(g.process_count(), 4u);  // + source + sink
  EXPECT_EQ(g.process(g.source()).kind, ProcessKind::kSource);
  EXPECT_EQ(g.process(g.sink()).kind, ProcessKind::kSink);
  EXPECT_EQ(g.process(g.source()).exec_time, 0);
  // Polar: P1 fed by source, P2 feeds sink.
  EXPECT_TRUE(g.graph().has_edge(g.source(), p1));
  EXPECT_TRUE(g.graph().has_edge(p2, g.sink()));
  EXPECT_FALSE(g.graph().has_edge(g.source(), p2));
}

TEST(CpgBuilder, GuardPropagation) {
  CpgBuilder b(small_arch());
  const CondId c = b.add_condition("C");
  const ProcessId p1 = b.add_process("P1", 0, 2);
  const ProcessId p2 = b.add_process("P2", 0, 3);
  const ProcessId p3 = b.add_process("P3", 1, 3);
  const ProcessId p4 = b.add_process("P4", 1, 1);
  b.add_cond_edge(p1, p2, Literal{c, true});
  b.add_cond_edge(p1, p3, Literal{c, false}, 2);
  b.add_edge(p2, p4, 2);
  b.add_edge(p3, p4, 0);
  b.mark_conjunction(p4);
  const Cpg g = b.build();

  EXPECT_TRUE(g.process(p1).guard.is_true());
  EXPECT_EQ(g.process(p2).guard, Dnf(Cube(Literal{c, true})));
  EXPECT_EQ(g.process(p3).guard, Dnf(Cube(Literal{c, false})));
  EXPECT_TRUE(g.process(p4).guard.is_true());  // conjunction of C and !C
  EXPECT_TRUE(g.process(g.sink()).guard.is_true());
  EXPECT_TRUE(g.process(p1).is_disjunction());
  EXPECT_EQ(g.disjunction_of(c), p1);
}

TEST(CpgBuilder, NestedGuards) {
  CpgBuilder b(small_arch());
  const CondId c = b.add_condition("C");
  const CondId k = b.add_condition("K");
  const ProcessId p1 = b.add_process("P1", 0, 1);
  const ProcessId p2 = b.add_process("P2", 0, 1);  // guard C
  const ProcessId p3 = b.add_process("P3", 0, 1);  // guard C & K
  b.add_cond_edge(p1, p2, Literal{c, true});
  b.add_cond_edge(p2, p3, Literal{k, true});
  const Cpg g = b.build();
  EXPECT_EQ(g.process(p3).guard,
            Dnf(Cube({Literal{c, true}, Literal{k, true}})));
}

TEST(CpgBuilder, AndSemanticsForOrdinaryJoin) {
  // Non-conjunction node fed by a conditional and an unconditional input:
  // guard is the conjunction (it waits for both).
  CpgBuilder b(small_arch());
  const CondId c = b.add_condition("C");
  const ProcessId p1 = b.add_process("P1", 0, 1);
  const ProcessId p2 = b.add_process("P2", 1, 1);
  const ProcessId p3 = b.add_process("P3", 0, 1);
  b.add_cond_edge(p1, p3, Literal{c, true});
  b.add_edge(p2, p3, 1);
  const Cpg g = b.build();
  EXPECT_EQ(g.process(p3).guard, Dnf(Cube(Literal{c, true})));
}

TEST(CpgBuilder, RejectsCycle) {
  CpgBuilder b(small_arch());
  const ProcessId p1 = b.add_process("P1", 0, 1);
  const ProcessId p2 = b.add_process("P2", 0, 1);
  b.add_edge(p1, p2);
  b.add_edge(p2, p1);
  EXPECT_THROW(b.build(), ValidationError);
}

TEST(CpgBuilder, RejectsContradictoryInputs) {
  // P3 waits for both the C and the !C branch: it can never run.
  CpgBuilder b(small_arch());
  const CondId c = b.add_condition("C");
  const ProcessId p1 = b.add_process("P1", 0, 1);
  const ProcessId p2 = b.add_process("P2", 0, 1);
  const ProcessId p3 = b.add_process("P3", 0, 1);
  const ProcessId p4 = b.add_process("P4", 0, 1);
  b.add_cond_edge(p1, p2, Literal{c, true});
  b.add_cond_edge(p1, p3, Literal{c, false});
  b.add_edge(p2, p4);
  b.add_edge(p3, p4);
  // p4 not marked as conjunction -> guard C & !C == false.
  EXPECT_THROW(b.build(), ValidationError);
}

TEST(CpgBuilder, RejectsTwoConditionsFromOneProcess) {
  CpgBuilder b(small_arch());
  const CondId c = b.add_condition("C");
  const CondId d = b.add_condition("D");
  const ProcessId p1 = b.add_process("P1", 0, 1);
  const ProcessId p2 = b.add_process("P2", 0, 1);
  const ProcessId p3 = b.add_process("P3", 0, 1);
  b.add_cond_edge(p1, p2, Literal{c, true});
  EXPECT_THROW(b.add_cond_edge(p1, p3, Literal{d, true}), InvalidArgument);
}

TEST(CpgBuilder, RejectsConditionComputedTwice) {
  CpgBuilder b(small_arch());
  const CondId c = b.add_condition("C");
  const ProcessId p1 = b.add_process("P1", 0, 1);
  const ProcessId p2 = b.add_process("P2", 0, 1);
  const ProcessId p3 = b.add_process("P3", 0, 1);
  b.add_cond_edge(p1, p3, Literal{c, true});
  b.set_computes(p2, c);  // accepted here, rejected at build()
  EXPECT_THROW(b.build(), ValidationError);
  // Different process, same condition via an edge:
  CpgBuilder b2(small_arch());
  const CondId c2 = b2.add_condition("C");
  const ProcessId q1 = b2.add_process("P1", 0, 1);
  const ProcessId q2 = b2.add_process("P2", 0, 1);
  const ProcessId q3 = b2.add_process("P3", 0, 1);
  b2.add_cond_edge(q1, q3, Literal{c2, true});
  b2.add_cond_edge(q2, q3, Literal{c2, false});
  EXPECT_THROW(b2.build(), Error);
}

TEST(CpgBuilder, RejectsUncomputedCondition) {
  CpgBuilder b(small_arch());
  b.add_condition("C");
  b.add_process("P1", 0, 1);
  EXPECT_THROW(b.build(), ValidationError);
}

TEST(CpgBuilder, RejectsMappingToBus) {
  Architecture arch = small_arch();
  CpgBuilder b(arch);
  EXPECT_THROW(b.add_process("P1", arch.id_of("bus"), 1), InvalidArgument);
}

TEST(CpgBuilder, AllowsMappingToMemory) {
  Architecture arch = small_arch();
  arch.add_memory("mem");
  CpgBuilder b(arch);
  EXPECT_NO_THROW(b.add_process("M1", arch.id_of("mem"), 5));
}

TEST(CpgBuilder, RejectsInterPeCommWithoutBus) {
  Architecture arch;
  arch.add_processor("p1");
  arch.add_processor("p2");
  CpgBuilder b(arch);
  const ProcessId p1 = b.add_process("P1", 0, 1);
  const ProcessId p2 = b.add_process("P2", 1, 1);
  b.add_edge(p1, p2, /*comm=*/3);
  EXPECT_THROW(b.build(), ValidationError);
}

TEST(CpgBuilder, RoundRobinBusAssignment) {
  Architecture arch;
  arch.add_processor("p1");
  arch.add_processor("p2");
  arch.add_bus("b1");
  arch.add_bus("b2");
  CpgBuilder b(arch);
  const ProcessId p1 = b.add_process("P1", 0, 1);
  const ProcessId p2 = b.add_process("P2", 1, 1);
  const ProcessId p3 = b.add_process("P3", 1, 1);
  const EdgeId e1 = b.add_edge(p1, p2, 2);
  const EdgeId e2 = b.add_edge(p1, p3, 2);
  const Cpg g = b.build();
  ASSERT_TRUE(g.edge(e1).bus.has_value());
  ASSERT_TRUE(g.edge(e2).bus.has_value());
  EXPECT_NE(*g.edge(e1).bus, *g.edge(e2).bus);
}

TEST(CpgBuilder, PinnedBusRespected) {
  Architecture arch;
  arch.add_processor("p1");
  arch.add_processor("p2");
  arch.add_bus("b1");
  arch.add_bus("b2");
  CpgBuilder b(arch);
  const ProcessId p1 = b.add_process("P1", 0, 1);
  const ProcessId p2 = b.add_process("P2", 1, 1);
  const EdgeId e = b.add_edge(p1, p2, 2);
  b.set_bus(e, arch.id_of("b2"));
  const Cpg g = b.build();
  EXPECT_EQ(*g.edge(e).bus, arch.id_of("b2"));
}

TEST(CpgBuilder, IntraPeEdgeHasNoBus) {
  CpgBuilder b(small_arch());
  const ProcessId p1 = b.add_process("P1", 0, 1);
  const ProcessId p2 = b.add_process("P2", 0, 1);
  const EdgeId e = b.add_edge(p1, p2, 99);
  const Cpg g = b.build();
  EXPECT_FALSE(g.edge(e).bus.has_value());
}

TEST(CpgBuilder, BuilderSingleUse) {
  CpgBuilder b(small_arch());
  b.add_process("P1", 0, 1);
  (void)b.build();
  EXPECT_THROW(b.add_process("P2", 0, 1), InvalidArgument);
  EXPECT_THROW(b.build(), InvalidArgument);
}

TEST(CpgBuilder, RejectsDuplicateProcessName) {
  CpgBuilder b(small_arch());
  b.add_process("P1", 0, 1);
  b.add_process("P2", 0, 1);
  EXPECT_THROW(b.add_process("P2", 0, 2), InvalidArgument);
  // A duplicate of the first process added, with the message naming it.
  try {
    b.add_process("P1", 1, 2);
    ADD_FAILURE() << "duplicate of the first process accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_EQ(std::string(e.what()), "duplicate process name: P1");
  }
  // A rejected name does not count as added.
  b.add_process("P3", 0, 1);
  EXPECT_EQ(b.build().ordinary_process_count(), 3u);
}

TEST(CpgBuilder, RejectsReservedPoleNames) {
  // build() adds the dummy poles as _source and _sink, so an ordinary
  // process of either name would make two processes of one name.
  const struct {
    const char* name;
    const char* message;
  } poles[] = {
      {"_source", "process name _source is reserved for the source pole"},
      {"_sink", "process name _sink is reserved for the sink pole"},
  };
  for (const auto& pole : poles) {
    SCOPED_TRACE(pole.name);
    CpgBuilder b(small_arch());
    b.add_process("P1", 0, 1);
    try {
      b.add_process(pole.name, 0, 5);
      ADD_FAILURE() << "reserved name accepted";
    } catch (const InvalidArgument& e) {
      EXPECT_EQ(std::string(e.what()), pole.message);
    }
    // The rejected name was not added: the poles keep their names.
    const Cpg g = b.build();
    EXPECT_EQ(g.ordinary_process_count(), 1u);
    EXPECT_EQ(g.process_by_name("_source"), g.source());
    EXPECT_EQ(g.process_by_name("_sink"), g.sink());
  }
}

TEST(Cpg, ActiveUnderAssignment) {
  CpgBuilder b(small_arch());
  const CondId c = b.add_condition("C");
  const ProcessId p1 = b.add_process("P1", 0, 1);
  const ProcessId p2 = b.add_process("P2", 0, 1);
  b.add_cond_edge(p1, p2, Literal{c, true});
  const Cpg g = b.build();
  Assignment yes(1);
  yes.set(c, true);
  Assignment no(1);
  EXPECT_TRUE(g.active_under(p2, yes));
  EXPECT_FALSE(g.active_under(p2, no));
  EXPECT_TRUE(g.active_under(p1, no));
}

TEST(Cpg, ProcessByName) {
  CpgBuilder b(small_arch());
  const ProcessId p1 = b.add_process("Alpha", 0, 1);
  const Cpg g = b.build();
  EXPECT_EQ(g.process_by_name("Alpha"), p1);
  EXPECT_THROW(g.process_by_name("Beta"), InvalidArgument);
}

}  // namespace
}  // namespace cps
