// Known-bad fixture for tools/leca_analyze.py: definitions no root
// reaches. A fixture is its own program, so its roots are main, the
// operator overloads and the keep-marked definitions. Three shapes are
// dead: a layer class that only a dynamic_cast names (a cast tests for
// a class, it does not make one), a free function nothing calls, and a
// keep marker that gives no reason. Four shapes are live although no
// reached body calls them by name: a kernel only a namespace-scope
// table names, a helper only a constructor init list calls, a failure
// path only a macro body calls, and an operator overload.
// Never compiled — analyzed only.
//
// expect: unreached

#include <cstdio>

class Layer
{
  public:
    virtual ~Layer() = default;
    virtual float forward(float x) = 0;
};

class Scale : public Layer
{
  public:
    float forward(float x) override { return 2.0f * x; }
};

/** Only the planner's dynamic_cast names it: dead. */
class MaxPool : public Layer // expect-here: unreached
{
  public:
    float forward(float x) override { return x > 0.0f ? x : 0.0f; }
};

float
plan(Layer &layer, float x)
{
    if (dynamic_cast<MaxPool *>(&layer) != nullptr)
        return 0.0f;
    return layer.forward(x);
}

float
unusedHelper(float x) // expect-here: unreached
{
    return x * x;
}

// leca-analyze: keep:
float
bareKeep(float x) // expect-here: unreached
{
    return -x;
}

float
kernelScalar(float x) // expect-none: unreached
{
    return x + 1.0f;
}

struct KernelTable
{
    float (*run)(float);
};

const KernelTable kTable = {kernelScalar};

int
defaultWidth() // expect-none: unreached
{
    return 4;
}

class Widget
{
  public:
    Widget() : _width(defaultWidth()) {}
    int width() const { return _width; }

  private:
    int _width;
};

[[noreturn]] void
failCheck(const char *what) // expect-none: unreached
{
    std::printf("check failed: %s\n", what);
    throw 1;
}

#define FIXTURE_CHECK(cond)                                              \
    do {                                                                 \
        if (!(cond))                                                     \
            failCheck(#cond);                                            \
    } while (0)

struct Vec2
{
    float x, y;
};

float
sumLanes(const Vec2 &v) // expect-none: unreached
{
    return v.x + v.y;
}

Vec2
operator+(const Vec2 &a, const Vec2 &b) // expect-none: unreached
{
    return {a.x + b.x, sumLanes(b)};
}

int
main()
{
    Scale scale;
    Widget widget;
    FIXTURE_CHECK(widget.width() == 4);
    std::printf("%f\n", plan(scale, kTable.run(1.0f)));
    return 0;
}
