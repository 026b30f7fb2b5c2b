package repro

import org.scalacheck.{Gen, Prop, Test}
import repro.graph.{CSRGraph, GraphGen}
import repro.prob.{Constant, ProbModel, UniformHash, WIC}

/** Inputs shared by the test suites: three fixed small graphs, and the
  * ScalaCheck generators with their runner.
  */
object TestGens {

  /** Three fixed small graphs, one per graph class, with their models. */
  val tiny: Seq[(String, CSRGraph, ProbModel)] = Seq(
    ("rmat-tiny", GraphGen.rmat(512, 3000, seed = 1), Constant(0.05)),
    ("grid-tiny", GraphGen.grid(20, 20), Constant(0.2)),
    ("knn-tiny", GraphGen.knn(400, 4, seed = 2), Constant(0.2)),
  )

  /** A random simple graph on n vertices with up to 2n edge draws (self
    * loops dropped, duplicates merged); the empty graph for n = 0.
    */
  def graph(n: Int): Gen[CSRGraph] =
    if (n == 0) Gen.const(CSRGraph.fromEdges(0, Nil))
    else {
      val vertex = Gen.choose(0, n - 1)
      for {
        m <- Gen.choose(0, 2 * n)
        pairs <- Gen.listOfN(m, Gen.zip(vertex, vertex))
      } yield CSRGraph.fromEdges(n, pairs.filter { case (u, v) => u != v })
    }

  /** One of the three probability models on g. */
  def model(g: CSRGraph): Gen[ProbModel] = Gen.oneOf(
    Gen.oneOf(0.1, 0.4, 0.8, 1.0).map(Constant(_)),
    Gen.zip(Gen.choose(0.0, 0.5), Gen.choose(0.0, 0.5)).map { case (a, b) => UniformHash(a, a + b) },
    Gen.const(WIC.of(g)),
  )

  /** Asserts that `prop` passes `runs` generated cases. */
  def check(prop: Prop, runs: Int): Unit = {
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(runs), prop)
    assert(res.passed, res.status)
  }
}
