package repro.sketch

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalatest.funsuite.AnyFunSuite
import repro.TestRefs
import repro.graph.CSRGraph
import repro.prob.{Constant, ProbModel, UniformHash, WIC}
import repro.sample.EdgeSampler

/** The sketch invariants as properties over generated graphs and all three
  * probability models: marginals do not depend on α and equal the
  * brute-force gain of σ̂, before and after seeding (Sec. 3), and the
  * parallel assembly equals a plain one-sketch-at-a-time assembly.
  */
class SketchPropertySpec extends AnyFunSuite {

  private def randomGraph(n: Int): Gen[CSRGraph] = {
    val vertex = Gen.choose(0, n - 1)
    for {
      m <- Gen.choose(0, 2 * n)
      pairs <- Gen.listOfN(m, Gen.zip(vertex, vertex))
    } yield CSRGraph.fromEdges(n, pairs.filter { case (u, v) => u != v })
  }

  private def model(g: CSRGraph): Gen[ProbModel] = Gen.oneOf(
    Gen.oneOf(0.1, 0.4, 0.8, 1.0).map(Constant(_)),
    Gen.zip(Gen.choose(0.0, 0.5), Gen.choose(0.0, 0.5)).map { case (a, b) => UniformHash(a, a + b) },
    Gen.const(WIC.of(g)),
  )

  private val cases = for {
    n <- Gen.choose(1, 60)
    g <- randomGraph(n)
    m <- model(g)
    r <- Gen.choose(1, 12)
    prefix <- Gen.choose(0, math.min(4, n))
    seeds <- Gen.pick(prefix, 0 until n)
  } yield (g, m, r, seeds.toList)

  private def check(prop: Prop, runs: Int): Unit = {
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(runs), prop)
    assert(res.passed, res.status)
  }

  test("marginal is alpha-invariant and equals the brute-force gain, before and after markSeed") {
    check(Prop.forAllNoShrink(cases) { case (g, m, r, seeds) =>
      val sampler = EdgeSampler.forSketches(m)
      val sks = Seq(0.0, 0.1, 1.0).map(a => SketchBuilder.build(g, m, r, a))
      val where = s"n=${g.n} edges=${g.edgeList.mkString(",")} ${m.label} R=$r seeds=$seeds"
      def agree(marked: Seq[Int]): Prop = {
        val base = TestRefs.sketchSigma(g, sampler, r, marked)
        Prop.all((0 until g.n).filterNot(marked.contains).map { v =>
          val gains = sks.map(_.marginal(v))
          val expect = TestRefs.sketchSigma(g, sampler, r, marked :+ v) - base
          gains.forall(_ == expect) :| s"v=$v marginals $gains, brute force $expect, marked $marked, $where"
        }: _*)
      }
      val before = agree(Nil)
      seeds.foreach(s => sks.foreach(_.markSeed(s)))
      before && agree(seeds)
    }, 100)
  }

  test("fromCCLabels equals the plain HashMap assembly") {
    val withAlpha = for {
      c <- cases
      alpha <- Gen.oneOf(0.0, 0.1, 0.5, 1.0)
    } yield (c._1, c._2, c._3, alpha)
    check(Prop.forAllNoShrink(withAlpha) { case (g, m, r, alpha) =>
      val sampler = EdgeSampler.forSketches(m)
      val centers = SketchBuilder.chooseCenters(g.n, alpha)
      val ccs = (0 until r).map(TestRefs.bfsCC(g, sampler, _))
      val sk = SketchBuilder.fromCCLabels(g, sampler, r, centers)(ccs(_))
      val (labels, sizes, init) = TestRefs.assembleRef(g.n, centers, ccs)
      val where = s"n=${g.n} edges=${g.edgeList.mkString(",")} ${m.label} R=$r alpha=$alpha"
      (sk.labels.map(_.toSeq).toSeq == labels) :| s"labels, $where" &&
        (sk.sizes.map(_.toSeq).toSeq == sizes) :| s"sizes, $where" &&
        (sk.initScores.toSeq == init) :| s"initScores, $where"
    }, 200)
  }
}
