package repro

import org.scalatest.funsuite.AnyFunSuite

import repro.core.PaCIM
import repro.graph.{CSRGraph, GraphGen}
import repro.prob.{Constant, ProbModel, UniformHash, WIC}
import repro.sample.EdgeSampler
import repro.select.{CelfSelector, PTreeSelector, WinTreeSelector}
import repro.sketch.SketchBuilder

/** Cross-product invariant matrix: every (graph shape × probability
  * model × alpha) cell registers its own tests for the paper's core
  * invariants, so a regression pinpoints the exact regime it broke.
  */
class InvariantMatrixSpec extends AnyFunSuite {

  private case class Shape(name: String, g: CSRGraph)
  private val shapes = Seq(
    Shape("rmat", GraphGen.rmat(192, 900, seed = 901)),
    Shape("er", TestGens.erdosRenyi(200, 400, seed = 902)),
    Shape("grid", GraphGen.grid(13, 13)),
    Shape("knn", GraphGen.knn(180, 3, seed = 903)),
    Shape("path", TestGens.path(120)),
  )
  private val models: Seq[(String, CSRGraph => ProbModel)] = Seq(
    ("const", _ => Constant(0.15)),
    ("uniform", _ => UniformHash(0.0, 0.35)),
    ("wic", g => WIC.of(g)),
  )
  private val alphas = Seq(0.0, 0.1, 0.5, 1.0)
  private val R = 10
  private val K = 6

  for (s <- shapes; (mName, mk) <- models) {
    val model = mk(s.g)
    val sampler = EdgeSampler.forSketches(model)
    val reference = SketchBuilder.build(s.g, model, R, alpha = 1.0)

    test(s"[${s.name}/$mName] sketch CC labels match brute-force BFS per sketch") {
      (0 until R).foreach { r =>
        val cc = TestRefs.bfsCC(s.g, sampler, r)
        (0 until s.g.n).foreach { v =>
          assert(reference.labels(r)(v) == cc(v), s"sketch $r vertex $v")
        }
      }
    }

    test(s"[${s.name}/$mName] init scores equal average CC size") {
      val byHand = Array.fill(s.g.n)(0L)
      (0 until R).foreach { r =>
        val cc = TestRefs.bfsCC(s.g, sampler, r)
        val sz = cc.groupBy(identity).view.mapValues(_.length).toMap
        (0 until s.g.n).foreach(v => byHand(v) += sz(cc(v)))
      }
      (0 until s.g.n).foreach(v =>
        assert(reference.scores(v) == byHand(v), s"v=$v"))
    }

    for (a <- alphas) {
      test(s"[${s.name}/$mName/alpha=$a] marginals identical to alpha=1 after seeding") {
        val sk = SketchBuilder.build(s.g, model, R, a)
        val ref = reference.copy()
        val probe = Seq(0, s.g.n / 3, s.g.n / 2)
        probe.foreach { sVert => sk.markSeed(sVert); ref.markSeed(sVert) }
        (0 until s.g.n by 7).foreach { v =>
          assert(sk.marginal(v) == ref.marginal(v), s"v=$v")
        }
      }
    }

    test(s"[${s.name}/$mName] CELF == P-tree == Win-Tree seeds; Thm 4.2 holds") {
      val celf = PaCIM.selectOn(reference, K, new CelfSelector())
      val pt = PaCIM.selectOn(reference, K, new PTreeSelector())
      val wt = PaCIM.selectOn(reference, K, new WinTreeSelector())
      assert(pt.seeds.toSeq == celf.seeds.toSeq)
      assert(wt.seeds.toSeq == celf.seeds.toSeq)
      assert(pt.evaluations <= 2 * celf.evaluations)
    }

    test(s"[${s.name}/$mName] selected seeds match brute-force greedy") {
      val expect = TestRefs.bruteGreedy(s.g, sampler, R, K).toSeq
      assert(PaCIM.selectOn(reference, K, new CelfSelector()).seeds.toSeq == expect)
    }
  }
}
