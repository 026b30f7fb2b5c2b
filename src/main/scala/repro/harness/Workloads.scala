package repro.harness

import repro.graph.{CSRGraph, GraphGen}
import repro.prob.{Constant, ProbModel, UniformHash, WIC}

/** The benchmark workloads: synthetic stand-ins for the paper's graphs
  * (Tab. 3), one per structural regime. Sizes are laptop-scale; the
  * mapping to the paper analog and the preserved phenomena are described
  * in DESIGN.md §3 and EXPERIMENTS.md.
  */
final case class Workload(
    name: String, // our name, starred to mark "stand-in"
    paperAnalog: String, // the Tab.-3 graph it stands in for
    cls: Workload.Cls,
    build: () => CSRGraph,
) {
  lazy val graph: CSRGraph = build()

  /** Main-body "Consistent" probability: 0.02 scale-free / 0.2 sparse. */
  def consistent: ProbModel =
    if (cls == Workload.ScaleFree) Constant(0.02) else Constant(0.2)

  /** Appendix-A "Uniform": U(0,0.1) scale-free / U(0.1,0.3) sparse. */
  def uniform: ProbModel =
    if (cls == Workload.ScaleFree) UniformHash(0.0, 0.1) else UniformHash(0.1, 0.3)

  /** Appendix-A "WIC": p_uv = 2/(d_u + d_v). */
  def wic: ProbModel = WIC.of(graph)
}

object Workloads {
  import Workload._

  val EP = Workload("EP*", "EP (Epinions)", ScaleFree, () => GraphGen.rmat(32768, 340000, seed = 101))
  val SLDT = Workload("SLDT*", "SLDT (Slashdot)", ScaleFree, () => GraphGen.rmat(32768, 400000, seed = 102))
  val YT = Workload("YT*", "YT (com-Youtube)", ScaleFree, () => GraphGen.rmat(65536, 350000, seed = 103))
  val OK = Workload("OK*", "OK (com-orkut)", ScaleFree, () => GraphGen.rmat(32768, 1200000, seed = 104))
  val LJ = Workload("LJ*", "LJ (LiveJournal)", ScaleFree, () => GraphGen.rmat(65536, 700000, seed = 105))
  val GER = Workload("GER*", "GER (Germany road)", Road, () => GraphGen.grid(300, 300))
  val USA = Workload("USA*", "USA (RoadUSA)", Road, () => GraphGen.grid(380, 370))
  val HT5 = Workload("HT5*", "HT5 (HT k-NN, k=5)", Knn, () => GraphGen.knn(32768, 5, seed = 106))
  val CH5 = Workload("CH5*", "CH5 (CHEM k-NN, k=5)", Knn, () => GraphGen.knn(32768, 5, seed = 107, clusters = 64))

  /** Tab. 3/4/5 workloads. */
  val all: Seq[Workload] = Seq(EP, SLDT, YT, OK, LJ, GER, USA, HT5, CH5)

  /** Appendix (Tab. 6/7) subset, for time budget. */
  val appendix: Seq[Workload] = Seq(EP, SLDT, OK, GER, HT5, CH5)
}

object Workload {
  sealed trait Cls { def label: String }
  case object ScaleFree extends Cls { val label = "scale-free" }
  case object Road extends Cls { val label = "road" }
  case object Knn extends Cls { val label = "k-NN" }
}
