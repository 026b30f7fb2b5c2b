package repro.graph

import scala.util.Random

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalatest.funsuite.AnyFunSuite
import repro.TestGens
import repro.TestGens.GraphOps
import repro.util.Rand

class CSRGraphSpec extends AnyFunSuite {

  test("fromEdges stores both arcs, sorted") {
    val g = TestGens.fromEdges(4, Seq((0, 1), (2, 1), (3, 0)))
    assert(g.n == 4 && g.m == 3 && g.arcs == 6)
    assert(g.neighbors(0).toSeq == Seq(1, 3))
    assert(g.neighbors(1).toSeq == Seq(0, 2))
    assert(g.neighbors(2).toSeq == Seq(1))
    assert(g.neighbors(3).toSeq == Seq(0))
  }

  test("self-loops are dropped") {
    val g = TestGens.fromEdges(3, Seq((0, 0), (1, 1), (0, 1)))
    assert(g.m == 1)
    assert(g.neighbors(0).toSeq == Seq(1))
  }

  test("duplicate and reversed edges are merged") {
    val g = TestGens.fromEdges(3, Seq((0, 1), (1, 0), (0, 1), (1, 2)))
    assert(g.m == 2)
    assert(g.degree(1) == 2)
  }

  test("packed keys in both orientations are merged into one edge") {
    val g = CSRGraph.fromPackedEdges(3, Array((1L << 32) | 0, (0L << 32) | 1, (2L << 32) | 1))
    assert(g.m == 2)
    assert(g.neighbors(0).toSeq == Seq(1))
    assert(g.neighbors(1).toSeq == Seq(0, 2))
    assert(g.neighbors(2).toSeq == Seq(1))
  }

  test("degree sums to 2m") {
    val g = TestGens.erdosRenyi(200, 600, seed = 3)
    assert((0 until g.n).map(g.degree).sum == 2 * g.m)
  }

  test("hasEdge agrees with adjacency") {
    val g = TestGens.erdosRenyi(100, 300, seed = 4)
    for (u <- 0 until g.n; v <- 0 until g.n) {
      assert(g.hasEdge(u, v) == g.neighbors(u).contains(v))
    }
  }

  test("hasEdge is symmetric") {
    val g = TestGens.erdosRenyi(100, 300, seed = 5)
    for (u <- 0 until g.n; v <- 0 until g.n)
      assert(g.hasEdge(u, v) == g.hasEdge(v, u))
  }

  test("foreachNeighbor visits exactly the adjacency") {
    val g = TestGens.erdosRenyi(50, 120, seed = 6)
    (0 until g.n).foreach { u =>
      val buf = scala.collection.mutable.ArrayBuffer.empty[Int]
      g.foreachNeighbor(u)(buf += _)
      assert(buf.toSeq == g.neighbors(u).toSeq)
    }
  }

  test("edgeList is canonical and complete") {
    val g = TestGens.erdosRenyi(80, 200, seed = 7)
    val el = g.edgeList
    assert(el.length == g.m)
    assert(el.forall { case (u, v) => u < v && g.hasEdge(u, v) })
    assert(el.distinct.length == el.length)
  }

  test("csrBytes matches the array sizes") {
    val g = TestGens.erdosRenyi(100, 250, seed = 8)
    assert(g.csrBytes == 4L * (g.n + 1) + 4L * g.arcs)
  }

  test("fromPackedEdges rejects out-of-range vertices") {
    intercept[IllegalArgumentException] {
      CSRGraph.fromPackedEdges(3, Array(Rand.edgeKey(0, 5)))
    }
  }

  test("n outside [0, Int.MaxValue) is rejected by name, before any allocation") {
    Seq(-1, Int.MinValue, Int.MaxValue).foreach { n =>
      def rejected(build: => CSRGraph): Unit = {
        val e = intercept[IllegalArgumentException](build)
        assert(e.getMessage.contains(s"n=$n"), e.getMessage)
      }
      rejected(CSRGraph.fromPackedEdges(n, Array.emptyLongArray))
      rejected(CSRGraph.fromPackedEdges(n, Array(Rand.edgeKey(0, 1))))
      rejected(TestGens.fromEdges(n, Nil))
      rejected(CSRGraph.wrap(n, Array(0), Array.emptyIntArray))
    }
    // The range's ends that are cheap to build.
    assert(CSRGraph.fromPackedEdges(0, Array.emptyLongArray).n == 0)
    assert(CSRGraph.wrap(0, Array(0), Array.emptyIntArray).m == 0)
  }

  test("wrap rejects arrays that do not fit n") {
    intercept[IllegalArgumentException](CSRGraph.wrap(2, Array(0, 1), Array(1)))
    intercept[IllegalArgumentException](CSRGraph.wrap(1, Array(0, 2), Array(0)))
  }

  test("wrap round-trips the raw arrays") {
    val g = TestGens.erdosRenyi(60, 150, seed = 9)
    val w = CSRGraph.wrap(g.n, g.offsets, g.adj)
    assert(w.m == g.m && w.neighbors(10).toSeq == g.neighbors(10).toSeq)
  }

  test("empty graph has zero edges everywhere") {
    val g = TestGens.empty(10)
    assert(g.m == 0)
    (0 until 10).foreach(v => assert(g.degree(v) == 0))
  }
}

/** fromPackedEdges against a Set-based reference on generated key arrays. */
class CSRGraphPropertySpec extends AnyFunSuite {

  private def key(u: Int, v: Int): Long = (u.toLong << 32) | v

  /** n, the keys, and a seed for a second shuffle. The keys hold random
    * pairs (self-loops and both orientations included), then a reversed
    * copy of some of them, in shuffled order.
    */
  private val inputs: Gen[(Int, Array[Long], Long)] = for {
    n <- Gen.choose(1, 30)
    pairs <- Gen.listOf(Gen.zip(Gen.choose(0, n - 1), Gen.choose(0, n - 1)))
    repeats <- Gen.someOf(pairs)
    order <- Gen.long
    reorder <- Gen.long
  } yield {
    val all = pairs ++ repeats.map(_.swap)
    (n, new Random(order).shuffle(all).map { case (u, v) => key(u, v) }.toArray, reorder)
  }

  test("fromPackedEdges matches a Set-based reference") {
    val prop = Prop.forAllNoShrink(inputs) { case (n, keys, reorder) =>
      val before = keys.clone()
      val g = CSRGraph.fromPackedEdges(n, keys)
      val edges = keys.iterator.map(k => ((k >>> 32).toInt, k.toInt))
        .collect { case (u, v) if u != v => (math.min(u, v), math.max(u, v)) }.toSet
      val lists = (0 until n).map { v =>
        edges.toSeq.collect { case (`v`, w) => w; case (u, `v`) => u }.sorted
      }
      val offsets = lists.scanLeft(0)(_ + _.length)
      val ascending = (0 until n).forall { v =>
        (g.offsets(v) + 1 until g.offsets(v + 1)).forall(i => g.adj(i - 1) < g.adj(i))
      }
      val permuted = CSRGraph.fromPackedEdges(n, new Random(reorder).shuffle(keys.toSeq).toArray)
      (g.offsets.toSeq == offsets &&
        g.adj.toSeq == lists.flatten &&
        ascending &&
        g.m == edges.size &&
        permuted.offsets.sameElements(g.offsets) && permuted.adj.sameElements(g.adj) &&
        keys.sameElements(before)) :| s"n=$n keys=${before.mkString(",")}"
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(res.passed, res.status)
  }
}

class GraphGenSpec extends AnyFunSuite {

  test("rmat is deterministic in its seed") {
    val a = GraphGen.rmat(1024, 5000, seed = 11)
    val b = GraphGen.rmat(1024, 5000, seed = 11)
    assert(a.edgeList.toSeq == b.edgeList.toSeq)
    val c = GraphGen.rmat(1024, 5000, seed = 12)
    assert(a.edgeList.toSeq != c.edgeList.toSeq)
  }

  test("rmat hits roughly the target edge count") {
    val g = GraphGen.rmat(4096, 30000, seed = 13)
    assert(g.m > 20000 && g.m < 33000, s"m=${g.m}")
  }

  test("rmat degrees are heavy-tailed (hub >> median)") {
    val g = GraphGen.rmat(4096, 40000, seed = 14)
    val degs = (0 until g.n).map(g.degree).sorted
    val median = degs(g.n / 2)
    val max = degs.last
    assert(max > 10 * math.max(1, median), s"max=$max median=$median")
  }

  test("grid has the lattice structure") {
    val g = GraphGen.grid(5, 7)
    assert(g.n == 35)
    assert(g.m == (5 * 6 + 4 * 7)) // horizontal + vertical edges
    assert(g.hasEdge(0, 1) && g.hasEdge(0, 7) && !g.hasEdge(0, 8))
    assert(g.degree(0) == 2) // corner
    assert(g.degree(8) == 4) // interior
    val maxDeg = (0 until g.n).map(g.degree).max
    assert(maxDeg <= 4)
  }

  test("knn gives every vertex degree >= k") {
    val g = GraphGen.knn(500, 4, seed = 15)
    (0 until g.n).foreach(v => assert(g.degree(v) >= 4, s"deg($v)=${g.degree(v)}"))
  }

  test("knn edge count is between nk/2 and nk") {
    val g = GraphGen.knn(500, 4, seed = 16)
    assert(g.m >= 500L * 4 / 2 && g.m <= 500L * 4)
  }

  test("knn connects geometric neighbors (each vertex's nearest is a neighbor)") {
    // Rebuild the same points and check the single nearest neighbor edge
    // exists: k-NN must include the 1-NN.
    val n = 300
    val rng = new Rand.Pcg(17)
    val xs = new Array[Double](n); val ys = new Array[Double](n)
    // GraphGen.knn(seed=17, uniform) draws x,y interleaved in this order
    // and applies no normalization for uniform points.
    (0 until n).foreach { i => xs(i) = rng.nextDouble(); ys(i) = rng.nextDouble() }
    val g = GraphGen.knn(n, 3, seed = 17)
    var checked = 0
    (0 until n).foreach { p =>
      var bd = Double.MaxValue; var bi = -1
      (0 until n).foreach { q =>
        if (q != p) {
          val d = (xs(q) - xs(p)) * (xs(q) - xs(p)) + (ys(q) - ys(p)) * (ys(q) - ys(p))
          if (d < bd) { bd = d; bi = q }
        }
      }
      if (g.hasEdge(p, bi)) checked += 1
    }
    assert(checked == n, s"only $checked/$n nearest-neighbor edges present")
  }

  test("knn clustered mode is deterministic and distinct from uniform") {
    val a = GraphGen.knn(400, 4, seed = 18, clusters = 8)
    val b = GraphGen.knn(400, 4, seed = 18, clusters = 8)
    val u = GraphGen.knn(400, 4, seed = 18)
    assert(a.edgeList.toSeq == b.edgeList.toSeq)
    assert(a.edgeList.toSeq != u.edgeList.toSeq)
  }

  test("erdosRenyi approximate edge count") {
    val g = TestGens.erdosRenyi(1000, 5000, seed = 19)
    assert(g.m > 4000 && g.m <= 6000)
  }

  test("path, cycle, star, clique shapes") {
    assert(TestGens.path(5).m == 4)
    assert(TestGens.cycle(5).m == 5)
    assert(TestGens.star(5).m == 4)
    assert(TestGens.star(5).degree(0) == 4)
    assert(TestGens.clique(5).m == 10)
    (0 until 5).foreach(v => assert(TestGens.clique(5).degree(v) == 4))
  }
}
