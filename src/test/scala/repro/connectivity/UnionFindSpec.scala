package repro.connectivity

import org.scalatest.funsuite.AnyFunSuite
import repro.{TestGens, TestRefs}
import repro.TestRefs.allEdges
import repro.graph.GraphGen
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

  test("sizesOf counts component members at the canonical label") {
    val labels = Array(0, 0, 2, 0, 2, 5)
    val s = LocalCC.sizesOf(labels, new Array[Int](labels.length))
    assert(s(0) == 3 && s(2) == 2 && s(5) == 1)
    assert(s(1) == 0 && s(3) == 0 && s(4) == 0)
  }
}
