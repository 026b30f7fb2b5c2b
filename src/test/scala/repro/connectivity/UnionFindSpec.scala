package repro.connectivity

import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import org.scalatest.funsuite.AnyFunSuite
import repro.{TestGens, TestRefs}
import repro.TestRefs.allEdges
import repro.graph.{CSRGraph, GraphGen}
import repro.prob.Constant
import repro.sample.EdgeSampler

class UnionFindSpec extends AnyFunSuite {

  test("random graphs: UF labels == BFS labels") {
    (0 until 10).foreach { s =>
      val g = TestGens.erdosRenyi(300, 200 + 50 * s, seed = 100 + s)
      assert(LocalCC.byUnionFind(g, allEdges, 0).toSeq == TestRefs.bfsCC(g).toSeq, s"seed $s")
    }
  }
}

class LocalCCSpec extends AnyFunSuite {

  test("coloring == union-find on full graphs") {
    (0 until 8).foreach { s =>
      val g = TestGens.erdosRenyi(250, 300, seed = 200 + s)
      assert(LocalCC.byColoring(g, allEdges, 0).toSeq == LocalCC.byUnionFind(g, allEdges, 0).toSeq, s"seed $s")
    }
  }

  test("coloring == union-find on a high-diameter path") {
    val g = TestGens.path(500)
    assert(LocalCC.byColoring(g, allEdges, 0).toSeq == LocalCC.byUnionFind(g, allEdges, 0).toSeq)
    assert(LocalCC.byUnionFind(g, allEdges, 0).forall(_ == 0))
  }

  test("sampled CC matches BFS on the same sampled graph") {
    val g = TestGens.erdosRenyi(300, 900, seed = 300)
    val sampler = EdgeSampler.forSketches(Constant(0.4))
    (0 until 6).foreach { r =>
      val uf = LocalCC.byUnionFind(g, sampler, r)
      val col = LocalCC.byColoring(g, sampler, r)
      val bfs = TestRefs.bfsCC(g, sampler, r)
      assert(uf.toSeq == bfs.toSeq, s"UF sketch $r")
      assert(col.toSeq == bfs.toSeq, s"coloring sketch $r")
    }
  }

  test("different sketch ids sample different graphs") {
    val g = TestGens.erdosRenyi(200, 800, seed = 301)
    val sampler = EdgeSampler.forSketches(Constant(0.3))
    val a = LocalCC.byUnionFind(g, sampler, 0)
    val b = LocalCC.byUnionFind(g, sampler, 1)
    assert(a.toSeq != b.toSeq)
  }

  test("p=1 sampling keeps the whole graph; p=0 isolates everything") {
    val g = GraphGen.grid(10, 10)
    val all = LocalCC.byUnionFind(g, EdgeSampler.forSketches(Constant(1.0)), 0)
    assert(all.forall(_ == 0))
    val none = LocalCC.byUnionFind(g, EdgeSampler.forSketches(Constant(0.0)), 0)
    assert(none.toSeq == (0 until 100))
  }

  /** R-MAT, lattice, path and star graphs of up to a few hundred vertices. */
  private val shapes: Gen[CSRGraph] = Gen.oneOf(
    Gen.zip(Gen.choose(2, 400), Gen.choose(1L, 1000L)).map { case (n, seed) => GraphGen.rmat(n, 3 * n, seed) },
    Gen.zip(Gen.choose(1, 20), Gen.choose(1, 20)).map { case (r, c) => GraphGen.grid(r, c) },
    Gen.choose(1, 300).map(TestGens.path),
    Gen.choose(1, 300).map(TestGens.star),
  )

  /** A block of 1 to 64 sampled graphs, often the full 64. */
  private val blocks: Gen[Int] = Gen.frequency(1 -> Gen.const(64), 2 -> Gen.choose(1, 64))

  test("uniteBlock: every parent is at most its vertex, and each forest labels its sampled graph's components") {
    val prop = Prop.forAll(shapes.flatMap(g => Gen.zip(Gen.const(g), TestGens.model(g), blocks, Gen.choose(0, 1000)))) {
      case (g, model, b, r0) =>
        val sampler = EdgeSampler.forSketches(model)
        val par = Array.fill(g.n * b)(-1)
        LocalCC.uniteBlock(g, sampler, r0, b, par)
        val ordered = (0 until g.n).forall(v => (0 until b).forall(j => par(v * b + j) <= v))
        // Stale entries, as in a reused array: a root must not read them.
        val out = Array.fill(g.n)(Int.MaxValue)
        val labelled = (0 until b).forall { j =>
          LocalCC.labelOf(par, b, j, out)
          out.toSeq == TestRefs.bfsCC(g, sampler, r0 + j).toSeq
        }
        (ordered :| s"a parent above its vertex, b=$b") && (labelled :| s"labels differ from BFS, b=$b")
    }
    TestGens.check(prop, 120)
  }

  test("labelOf in place (b = 1) equals its out-of-place result") {
    val prop = Prop.forAll(shapes.flatMap(g => Gen.zip(Gen.const(g), TestGens.model(g), Gen.choose(0, 1000)))) {
      case (g, model, r) =>
        val par = new Array[Int](g.n)
        LocalCC.uniteBlock(g, EdgeSampler.forSketches(model), r, 1, par)
        val out = Array.fill(g.n)(-7)
        LocalCC.labelOf(par, 1, 0, out)
        LocalCC.labelOf(par, 1, 0, par)
        par.toSeq == out.toSeq
    }
    TestGens.check(prop, 100)
  }

  test("Rem's splicing hangs each node a climb passes under the other side's parent") {
    // Scan order links (0,3), (1,2), then (2,3). The last climbs from 2
    // (parent 1 > 0), hangs 2 under 0 and then root 1 under 0. Path
    // halving with root linking would leave 2 under 1: [0, 0, 1, 0].
    val g = TestGens.fromEdges(4, Seq((0, 3), (1, 2), (2, 3)))
    val par = new Array[Int](4)
    LocalCC.uniteBlock(g, allEdges, 0, 1, par)
    assert(par.toSeq == Seq(0, 0, 0, 0))
  }

  test("sizesOf counts component members at the canonical label") {
    val labels = Array(0, 0, 2, 0, 2, 5)
    val s = LocalCC.sizesOf(labels, new Array[Int](labels.length))
    assert(s(0) == 3 && s(2) == 2 && s(5) == 1)
    assert(s(1) == 0 && s(3) == 0 && s(4) == 0)
  }
}
