package repro.sketch

import repro.SparkSpec
import repro.graph.GraphGen
import repro.prob.{Constant, UniformHash}

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

  test("sparkEstimate is bit-identical to the local estimate") {
    val g = GraphGen.rmat(512, 3000, seed = 604)
    val model = Constant(0.05)
    val seeds = Array(1, 17, 33, 257)
    val local = repro.core.InfluenceEval.estimate(g, seeds, model, 200)
    val dist = repro.core.InfluenceEval.sparkEstimate(spark, g, seeds, model, 200)
    assert(local == dist)
  }

  test("sparkEstimate on exact cases (p=1 components)") {
    val g = repro.graph.CSRGraph.fromEdges(10, Seq((0, 1), (1, 2), (4, 5)))
    assert(repro.core.InfluenceEval.sparkEstimate(spark, g, Array(0), Constant(1.0), 16) == 3.0)
    assert(repro.core.InfluenceEval.sparkEstimate(spark, g, Array(0, 4), Constant(1.0), 16) == 5.0)
  }
}
