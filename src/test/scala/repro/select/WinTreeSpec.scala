package repro.select

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGens
import repro.core.PaCIM
import repro.graph.GraphGen
import repro.prob.Constant
import repro.sketch.SketchBuilder

/** Win-Tree–specific behavior beyond the cross-selector equivalence in
  * SelectorSpec: determinism under asynchrony, degenerate shapes, and
  * non-power-of-two population sizes (padding leaves).
  */
class WinTreeSpec extends AnyFunSuite {

  test("selected seeds are identical across repeated concurrent runs") {
    val g = GraphGen.rmat(700, 4000, seed = 71) // 700: not a power of two
    val sk = SketchBuilder.build(g, Constant(0.08), 16, 1.0)
    val runs = (1 to 5).map(_ => PaCIM.selectOn(sk, 15, new WinTreeSelector()).seeds.toSeq)
    runs.tail.foreach(r => assert(r == runs.head))
  }

  test("parallel and sequential traversal select the same seeds") {
    // Win-Tree's parallel traversal must pick the seeds of CELF's
    // sequential one. A 512-leaf tree has its leaves at depth 9, below
    // FindMax's fork cutoff at depth 8, so the run both forks and
    // recurses sequentially.
    val g = TestGens.erdosRenyi(333, 800, seed = 72)
    val sk = SketchBuilder.build(g, Constant(0.3), 12, 0.2)
    assert(TournamentTree.leafCount(g.n) == 512)
    val wt = PaCIM.selectOn(sk, 12, new WinTreeSelector()).seeds.toSeq
    val celf = PaCIM.selectOn(sk, 12, new CelfSelector()).seeds.toSeq
    assert(wt == celf)
  }

  test("Win-Tree refreshes on a percolating R-MAT graph at alpha = 0.1 and keeps CELF's seeds") {
    // After the first seed removes the giant component, a lazy round 1
    // re-evaluates most vertices, each with a GetCenter search per sketch.
    // The refresh does not depend on thread timing here: the vertices any
    // traversal must evaluate in round 1 (CELF's 1315) draw 3.6M arcs,
    // about 46 times the budget.
    val g = GraphGen.rmat(2048, 20000, seed = 61)
    val compressed = SketchBuilder.build(g, Constant(0.02), 32, 0.1)
    val wt = PaCIM.selectOn(compressed, 10, new WinTreeSelector())
    assert(wt.refreshes >= 1)
    assert(wt.seeds.sameElements(PaCIM.selectOn(compressed, 10, new CelfSelector()).seeds))
    // A search from a center draws nothing, so at alpha = 1 no round refreshes.
    val full = SketchBuilder.build(g, Constant(0.02), 32, 1.0)
    val lazyRun = PaCIM.selectOn(full, 10, new WinTreeSelector())
    assert(lazyRun.refreshes == 0 && lazyRun.seeds.sameElements(wt.seeds))
  }

  test("a graph without edges never refreshes, even with no centers") {
    val sk = SketchBuilder.build(TestGens.empty(50), Constant(0.5), 8, 0.0)
    val r = PaCIM.selectOn(sk, 5, new WinTreeSelector())
    assert(r.refreshes == 0 && r.seeds.toSeq == (0 until 5))
  }

  test("n = 1 graph") {
    val g = TestGens.empty(1)
    val sk = SketchBuilder.build(g, Constant(0.5), 4, 1.0)
    val r = PaCIM.selectOn(sk, 1, new WinTreeSelector())
    assert(r.seeds.toSeq == Seq(0))
  }

  test("k larger than n is truncated to n") {
    val g = TestGens.path(7)
    val sk = SketchBuilder.build(g, Constant(0.5), 4, 1.0)
    Seq(new WinTreeSelector(): Selector, new PTreeSelector(), new CelfSelector()).foreach { sel =>
      val r = PaCIM.selectOn(sk, 99, sel)
      assert(r.seeds.sorted.toSeq == (0 until 7), sel.name)
    }
  }

  test("all-isolated graph: seeds are the smallest ids (score ties)") {
    val g = TestGens.empty(10)
    val sk = SketchBuilder.build(g, Constant(0.5), 4, 1.0)
    Seq(new WinTreeSelector(): Selector, new PTreeSelector(), new CelfSelector()).foreach { sel =>
      assert(PaCIM.selectOn(sk, 3, sel).seeds.toSeq == Seq(0, 1, 2), sel.name)
    }
  }

  test("structure bytes follow the 2n-ids model") {
    val g = TestGens.erdosRenyi(1000, 2000, seed = 73)
    val sk = SketchBuilder.build(g, Constant(0.2), 4, 1.0)
    val r = PaCIM.selectOn(sk, 2, new WinTreeSelector())
    // 1024 leaves -> 2047 node ids (4B). The scores the tree keys on belong
    // to the sketch set, which counts them.
    assert(r.structBytes == 4L * 2047)
  }

  test("populations above 2^29 are rejected instead of overflowing the leaf count") {
    // A graph this large does not fit in a test JVM, so the sizing
    // function, which Win-Tree's tree calls before it allocates, is checked
    // on its own; RISSpec checks max coverage's use of it.
    Seq((1 << 29) + 1, (1 << 30) + 1, Int.MaxValue).foreach { n =>
      val e = intercept[IllegalArgumentException](TournamentTree.leafCount(n))
      assert(e.getMessage.contains(s"n=$n"))
    }
  }
}
