package repro.sketch

import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import repro.{SparkSpec, TestGens}
import repro.core.InfluenceEval
import repro.graph.GraphGen
import repro.prob.{Constant, UniformHash, WIC}

class SparkSketchBuilderSpec extends SparkSpec {

  test("sampledEdges matches the driver-side sampler exactly") {
    val g = GraphGen.erdosRenyi(100, 300, seed = 601)
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

  test("distributed build is bit-identical to the local build") {
    val g = GraphGen.rmat(200, 900, seed = 602)
    val model = Constant(0.15)
    Seq(0.0, 0.2, 1.0).foreach { alpha =>
      val local = SketchBuilder.build(g, model, 6, alpha)
      val dist = SparkSketchBuilder.build(spark, g, model, 6, alpha)
      assert(dist.centers.toSeq == local.centers.toSeq, s"alpha=$alpha")
      (0 until 6).foreach { r =>
        assert(dist.labels(r).toSeq == local.labels(r).toSeq, s"alpha=$alpha r=$r labels")
        assert(dist.sizes(r).toSeq == local.sizes(r).toSeq, s"alpha=$alpha r=$r sizes")
      }
      assert(dist.initScores.toSeq == local.initScores.toSeq, s"alpha=$alpha")
    }
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
    val g = GraphGen.path(3)
    Seq(0, -1).foreach { sims =>
      intercept[IllegalArgumentException](InfluenceEval.sparkEstimate(spark, g, Array(0), Constant(0.5), sims))
    }
  }

  test("sparkEstimate on exact cases (p=1 components)") {
    val g = repro.graph.CSRGraph.fromEdges(10, Seq((0, 1), (1, 2), (4, 5)))
    assert(InfluenceEval.sparkEstimate(spark, g, Array(0), Constant(1.0), 16) == 3.0)
    assert(InfluenceEval.sparkEstimate(spark, g, Array(0, 4), Constant(1.0), 16) == 5.0)
  }
}
