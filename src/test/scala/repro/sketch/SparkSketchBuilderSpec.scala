package repro.sketch

import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import repro.{SparkSpec, TestGens}
import repro.core.InfluenceEval
import repro.graph.{CSRGraph, GraphGen}
import repro.prob.{Constant, UniformHash, WIC}

class SparkSketchBuilderSpec extends SparkSpec {

  test("sampledEdges matches the driver-side sampler exactly") {
    val g = TestGens.erdosRenyi(100, 300, seed = 601)
    val model = Constant(0.3)
    val df = SparkSketchBuilder.sampledEdges(spark, g, model, numSketches = 4)
    val got = df.collect().map(r => (r.getAs[Number]("g").intValue(),
      r.getAs[Number]("src").intValue(), r.getAs[Number]("dst").intValue())).toSet
    val sampler = repro.sample.EdgeSampler.forSketches(model)
    val expect = (for {
      r <- 0 until 4
      (u, v) <- g.edgeList.toSeq if sampler.sample(u, v, r)
    } yield (r, u, v)).toSet
    assert(got == expect)
  }

  // Generated graphs, the empty one included, under every model and
  // alpha; R up to 40, so that R is often not a multiple of the block size
  // (and the local and Spark builds may block the sketches differently).
  test("distributed build is bit-identical to the local build") {
    def agree(g: CSRGraph, r: Int): Prop = Prop.all((for {
      m <- Seq(Constant(0.3), UniformHash(0.0, 0.4), WIC.of(g))
      alpha <- Seq(0.0, 0.1, 0.5, 1.0)
    } yield {
      val local = SketchBuilder.build(g, m, r, alpha)
      val dist = SparkSketchBuilder.build(spark, g, m, r, alpha)
      val where = s"n=${g.n} ${m.label} R=$r alpha=$alpha"
      (dist.centers.sameElements(local.centers)) :| s"centers, $where" &&
        (0 until r).forall(i => dist.labels(i).sameElements(local.labels(i))) :| s"labels, $where" &&
        (0 until r).forall(i => dist.sizes(i).sameElements(local.sizes(i))) :| s"sizes, $where" &&
        (dist.scores.sameElements(local.scores)) :| s"scores, $where"
    }): _*)
    val sketches = Gen.choose(1, 40)
    TestGens.check(Prop.forAllNoShrink(TestGens.graph(0), sketches)(agree), 1)
    val cases = for {
      n <- Gen.choose(1, 150)
      g <- TestGens.graph(n)
      r <- sketches
    } yield (g, r)
    TestGens.check(Prop.forAllNoShrink(cases) { case (g, r) => agree(g, r) }, 25)
  }

  test("seed selection on distributed-built sketches matches local") {
    val g = GraphGen.rmat(150, 700, seed = 603)
    val model = UniformHash(0.0, 0.3)
    val local = SketchBuilder.build(g, model, 8, 0.3)
    val dist = SparkSketchBuilder.build(spark, g, model, 8, 0.3)
    val sel = new repro.select.WinTreeSelector()
    val a = repro.core.PaCIM.selectOn(local, 10, sel).seeds.toSeq
    val b = repro.core.PaCIM.selectOn(dist, 10, sel).seeds.toSeq
    assert(a == b)
  }
}

class SparkInfluenceSpec extends SparkSpec {

  // A few generated graphs, each under all three models, with sims that
  // give a single block, a partial last block and full blocks.
  test("sparkEstimate is bit-identical to the local estimate") {
    val graphs = for {
      n <- Gen.choose(1, 300)
      g <- TestGens.graph(n)
      seeds <- Gen.listOfN(4, Gen.choose(0, n - 1))
    } yield (g, seeds.toArray)
    TestGens.check(Prop.forAllNoShrink(graphs) { case (g, seeds) =>
      val cases = for {
        m <- Seq(Constant(0.3), UniformHash(0.0, 0.4), WIC.of(g))
        sims <- Seq(1, 65, 200)
      } yield {
        val local = InfluenceEval.estimate(g, seeds, m, sims)
        val dist = InfluenceEval.sparkEstimate(spark, g, seeds, m, sims)
        (local == dist) :| s"n=${g.n} ${m.label} sims=$sims seeds=${seeds.toSeq}: local $local, Spark $dist"
      }
      Prop.all(cases: _*)
    }, 3)
  }

  test("sparkEstimate rejects sims <= 0") {
    val g = TestGens.path(3)
    Seq(0, -1).foreach { sims =>
      intercept[IllegalArgumentException](InfluenceEval.sparkEstimate(spark, g, Array(0), Constant(0.5), sims))
    }
  }

  test("sparkEstimate on exact cases (p=1 components)") {
    val g = TestGens.fromEdges(10, Seq((0, 1), (1, 2), (4, 5)))
    assert(InfluenceEval.sparkEstimate(spark, g, Array(0), Constant(1.0), 16) == 3.0)
    assert(InfluenceEval.sparkEstimate(spark, g, Array(0, 4), Constant(1.0), 16) == 5.0)
  }
}
