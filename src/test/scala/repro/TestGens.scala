package repro

import org.scalacheck.{Gen, Prop, Test}
import repro.graph.{CSRGraph, GraphGen}
import repro.prob.{Constant, ProbModel, UniformHash, WIC}
import repro.util.Rand
import repro.util.Rand.Pcg

/** Inputs shared by the test suites: three fixed small graphs, small
  * deterministic shapes, the ScalaCheck generators with their runner, and
  * adjacency queries the program itself never makes.
  */
object TestGens {

  /** Three fixed small graphs, one per graph class, with their models. */
  val tiny: Seq[(String, CSRGraph, ProbModel)] = Seq(
    ("rmat-tiny", GraphGen.rmat(512, 3000, seed = 1), Constant(0.05)),
    ("grid-tiny", GraphGen.grid(20, 20), Constant(0.2)),
    ("knn-tiny", GraphGen.knn(400, 4, seed = 2), Constant(0.2)),
  )

  /** Erdős–Rényi G(n, m): about 1.2 m uniform vertex pairs, self loops
    * dropped and duplicates merged.
    */
  def erdosRenyi(n: Int, m: Int, seed: Long = 13): CSRGraph = {
    val rng = new Pcg(seed)
    val packed = new Array[Long]((m * 1.2).toInt + 8)
    var i = 0
    while (i < packed.length) {
      packed(i) = Rand.edgeKey(rng.nextInt(n), rng.nextInt(n))
      i += 1
    }
    CSRGraph.fromPackedEdges(n, packed)
  }

  /** Build from (u, v) pairs (order/duplication insensitive). */
  def fromEdges(n: Int, edges: Iterable[(Int, Int)]): CSRGraph =
    CSRGraph.fromPackedEdges(n, edges.iterator.map { case (u, v) => Rand.edgeKey(u, v) }.toArray)

  /** Simple deterministic shapes. */
  def path(n: Int): CSRGraph = fromEdges(n, (0 until n - 1).map(i => (i, i + 1)))
  def cycle(n: Int): CSRGraph = fromEdges(n, (0 until n).map(i => (i, (i + 1) % n)))
  def star(n: Int): CSRGraph = fromEdges(n, (1 until n).map(i => (0, i)))
  def clique(n: Int): CSRGraph =
    fromEdges(n, for { i <- 0 until n; j <- i + 1 until n } yield (i, j))
  def empty(n: Int): CSRGraph = fromEdges(n, Nil)

  /** Adjacency queries on a CSR graph. */
  implicit final class GraphOps(private val g: CSRGraph) extends AnyVal {
    /** v's neighbors, ascending, in a fresh array. */
    def neighbors(v: Int): Array[Int] = java.util.Arrays.copyOfRange(g.adj, g.offsets(v), g.offsets(v + 1))

    def hasEdge(u: Int, v: Int): Boolean =
      java.util.Arrays.binarySearch(g.adj, g.offsets(u), g.offsets(u + 1), v) >= 0
  }

  /** A random simple graph on n vertices with up to 2n edge draws (self
    * loops dropped, duplicates merged); the empty graph for n = 0.
    */
  def graph(n: Int): Gen[CSRGraph] =
    if (n == 0) Gen.const(fromEdges(0, Nil))
    else {
      val vertex = Gen.choose(0, n - 1)
      for {
        m <- Gen.choose(0, 2 * n)
        pairs <- Gen.listOfN(m, Gen.zip(vertex, vertex))
      } yield fromEdges(n, pairs.filter { case (u, v) => u != v })
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
