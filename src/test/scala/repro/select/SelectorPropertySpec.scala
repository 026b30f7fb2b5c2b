package repro.select

import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import org.scalatest.funsuite.AnyFunSuite
import repro.{TestGens, TestRefs}
import repro.core.PaCIM
import repro.graph.CSRGraph
import repro.sample.EdgeSampler
import repro.sketch.SketchBuilder

/** The selection invariants as properties over generated inputs, under
  * all three probability models: every selector returns brute-force
  * greedy's seeds (Thm 4.1/4.4), Win-Tree with its bulk refreshes
  * included, and P-tree needs at least CELF's evaluations and at most
  * twice as many (Thm 4.2).
  */
class SelectorPropertySpec extends AnyFunSuite {

  /** Random edges over n vertices; sparse draws leave isolated vertices. */
  private def randomEdges(n: Int): Gen[CSRGraph] = {
    val vertex = Gen.choose(0, math.max(0, n - 1)) // never drawn when n = 0
    for {
      m <- Gen.choose(0, 2 * n)
      pairs <- Gen.listOfN(m, Gen.zip(vertex, vertex))
    } yield TestGens.fromEdges(n, pairs.filter { case (u, v) => u != v })
  }

  /** Disjoint cliques of 1 to 8 consecutive vertices. At p = 1 every
    * member of a clique has the same sum on every sketch, so scores tie
    * exactly and only the id tie-break separates them.
    */
  private def cliques(n: Int): Gen[CSRGraph] =
    Gen.listOfN(n, Gen.choose(1, 8)).map { sizes =>
      val blocks = sizes.scanLeft(0)(_ + _).zip(sizes).takeWhile(_._1 < n)
      val edges = blocks.flatMap { case (start, size) =>
        val end = math.min(n, start + size)
        for { i <- start until end; j <- i + 1 until end } yield (i, j)
      }
      TestGens.fromEdges(n, edges)
    }

  private val cases = for {
    n <- Gen.choose(0, 60)
    g <- Gen.oneOf(randomEdges(n), cliques(n))
    model <- TestGens.model(g)
    r <- Gen.choose(1, 12)
    alpha <- Gen.oneOf(0.0, 0.1, 1.0)
    k <- Gen.choose(0, n + 2)
  } yield (g, model, r, alpha, k)

  test("CELF, P-tree and Win-Tree return brute-force greedy's seeds; P-tree <= 2x CELF evaluations") {
    // Rounds of a small graph at alpha < 1 often draw more than Win-Tree's
    // refresh budget, so its bulk refresh is checked here too.
    var refreshes = 0
    val prop = Prop.forAllNoShrink(cases) { case (g, model, r, alpha, k) =>
      val sk = SketchBuilder.build(g, model, r, alpha)
      val celf = PaCIM.selectOn(sk, k, new CelfSelector)
      val pt = PaCIM.selectOn(sk, k, new PTreeSelector)
      val wt = PaCIM.selectOn(sk, k, new WinTreeSelector)
      refreshes += wt.refreshes
      val expect = TestRefs.bruteGreedy(g, EdgeSampler.forSketches(model), r, k)
      val where = s"n=${g.n} edges=${g.edgeList.mkString(",")} model=$model R=$r alpha=$alpha k=$k"
      (celf.seeds.sameElements(expect) :| s"CELF ${celf.seeds.mkString(",")} $where") &&
        (pt.seeds.sameElements(expect) :| s"P-tree ${pt.seeds.mkString(",")} $where") &&
        (wt.seeds.sameElements(expect) :| s"Win-Tree ${wt.seeds.mkString(",")} $where") &&
        (celf.evaluations <= pt.evaluations && pt.evaluations <= 2 * celf.evaluations) :|
          s"P-tree ${pt.evaluations} outside [CELF, 2 x CELF] for CELF ${celf.evaluations} evaluations, $where"
    }
    TestGens.check(prop, 200)
    assert(refreshes > 0, "no Win-Tree round refreshed")
  }
}
